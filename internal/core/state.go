package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// The T2S state section is the assignment's section, then the index's
// columns, one per-node value only where memory holds one. A node is held
// when its word indexes a record (it is not spent out); a spent-out node
// has only its output count. Shard ids and span lengths take
// placement.ShardWidth(k) bytes each (1 when k <= 255, else 2); a
// fixed-width column is a uvarint count and that many little-endian
// elements, a count column a uvarint count, a uvarint byte length and that
// many uvarints:
//
//	assignment     the decision count and the packed words: half a byte a
//	               transaction at k = 16
//	held bitmap    ⌈n/64⌉ 8-byte words, bit v%64 of word v/64 set when
//	               node v is held; the bits past the last node are zero
//	output counts  a count column, one uvarint per transaction (1 B below
//	               128; 0 for a count the source did not know)
//	out-degrees    a count column, one uvarint per held transaction (1 B
//	               below 128)
//	span lengths   1 or 2 B per held transaction (entries of its p'(v), at
//	               most k; 0 for one spent past its count)
//	slab shard ids 1 or 2 B per entry, live vectors back to back in
//	               transaction order: no free slots, no chunk padding
//	slab values    8 B per entry (Q32.32)
//
// Configuration (alpha, truncation, normalization, the output-count source)
// is construction input, not state — the restore target must be built with
// the same parameters. Which slots and records are free is not state
// either, nor which record a node has: a restored index is packed. The
// output counts are state: Alg. 1 divides p'(v) by them, and a spent-out
// node's count is its out-degree, so the restore takes them from the
// section and never asks the source. The count of spent-out nodes and the
// byte lengths of both count columns are kept as running totals (spent,
// wideOuts, wideDegs), so a section's size takes no pass over the state.

// stateSize returns how many bytes writeState emits.
func (t *T2SIndex) stateSize() int64 {
	n, width := len(t.words), placement.ShardWidth(t.asn.K())
	h := n - t.spent
	return t.asn.StateSize() + placement.ColumnSize((n+63)/64, 8) +
		placement.CountsSize(n, int64(n)+t.wideOuts) + placement.CountsSize(h, int64(h)+t.wideDegs) +
		placement.ColumnSize(h, width) + placement.ColumnSize(t.entries, width) + placement.ColumnSize(t.entries, 8)
}

// wordBlock is how many values of a per-node column are encoded at a time,
// straight into the writer's staging space: at 5 bytes a count at most, 20
// KiB of it.
const wordBlock = 4096

// held is one node with a record, as a snapshot reads it: its position
// and a copy of its record.
type held struct {
	v  uint32
	nd t2sNode
}

// heldNodes returns the held nodes, in node order, with a copy of each
// record, and the held bitmap: 16 bytes a held node and a bit a node, for
// the length of one writeState. Every per-node column reads those copies
// alone, in order: a spent-out word costs neither a record read nor a
// branch, and each record, which sits where the free list put it, is read
// from the table once a snapshot instead of once a column.
func (t *T2SIndex) heldNodes() ([]held, []uint64) {
	hs := make([]held, len(t.words)-t.spent+1) // one spare
	bitmap := make([]uint64, (len(t.words)+63)/64)
	m := 0
	for v, x := range t.words {
		h := ^x >> 31
		hs[m].v = uint32(v)
		m += int(h)
		bitmap[v>>6] |= uint64(h) << (v & 63)
	}
	hs = hs[:m]
	for i := range hs {
		hs[i].nd = *t.rec(t.words[hs[i].v])
	}
	return hs, bitmap
}

// writeState serializes the index's complete incremental state and the
// assignment. The output counts are encoded from the words a block at a
// time, those of the held nodes taken from copies of their records, the
// held nodes' columns from those copies alone, and the slab columns are
// gathered through them: no walk over the arena's free slots or the record
// table's free records.
func (t *T2SIndex) writeState(w *placement.StateWriter) {
	if t.tally.hasPending {
		panic(fmt.Sprintf("core: snapshot between Prepare(%d) and Commit", t.tally.pendingNode))
	}
	hs, bitmap := t.heldNodes()
	t.asn.WriteState(w)
	w.Uvarint(uint64(len(bitmap)))
	w.Uint64s(bitmap)
	j := 0 // hs[j] is the first held node of the block
	writeCounts(w, len(t.words), t.wideOuts, func(vals []uint32, lo int) {
		for i, x := range t.words[lo : lo+len(vals)] {
			vals[i] = x &^ spentOut
		}
		for ; j < len(hs) && int(hs[j].v) < lo+len(vals); j++ {
			vals[int(hs[j].v)-lo] = uint32(t.outCount(txgraph.Node(hs[j].v), hs[j].nd.outs))
		}
	})
	writeCounts(w, len(hs), t.wideDegs, func(vals []uint32, lo int) {
		for i := range vals {
			vals[i] = uint32(hs[lo+i].nd.deg)
		}
	})
	width := placement.ShardWidth(t.asn.K())
	w.Uvarint(uint64(len(hs)))
	var lens [wordBlock]uint16
	for lo := 0; lo < len(hs); lo += wordBlock {
		part := hs[lo:min(lo+wordBlock, len(hs))]
		for i := range part {
			lens[i] = part[i].nd.n
		}
		w.Shards(lens[:len(part)], width)
	}
	blockS, blockV := [2048]uint16{}, [1024]uint64{}
	w.Uvarint(uint64(t.entries))
	gather(t, hs, t.slabS, blockS[:], func(s []uint16) { w.Shards(s, width) })
	w.Uvarint(uint64(t.entries))
	gather(t, hs, t.slabV, blockV[:], w.Uint64s)
}

// writeCounts writes a count column of n values that take wide bytes past
// one each, a block at a time: fill stores values lo, lo+1, ... in vals,
// which are encoded straight into the writer's staging space.
func writeCounts(w *placement.StateWriter, n int, wide int64, fill func(vals []uint32, lo int)) {
	w.Uvarint(uint64(n))
	w.Uvarint(uint64(int64(n) + wide))
	var block [wordBlock]uint32
	for lo := 0; lo < n; lo += wordBlock {
		vals := block[:min(wordBlock, n-lo)]
		fill(vals, lo)
		b, at := w.Stage(binary.MaxVarintLen32*len(vals)), 0
		for _, v := range vals {
			if v < 0x80 {
				b[at] = byte(v)
				at++
			} else {
				at += placement.PutCount(b[at:], v)
			}
		}
		w.Commit(at)
	}
}

// gather writes one slab column of every live vector, in node order, a
// block at a time, through the record copies of the nodes that have one. A
// vector of up to four entries is copied four wide, with no branch on its
// length.
func gather[T uint16 | uint64](t *T2SIndex, hs []held, column [][]T, block []T, write func([]T)) {
	size := uint32(1) << t.chunkBits
	fill := 0
	for i := range hs {
		nd := &hs[i].nd
		n := int(nd.n)
		if n == 0 {
			continue // spent past its count, or an empty vector
		}
		src, o := column[nd.off>>t.chunkBits], nd.off&(size-1)
		if fill+n+4 > len(block) {
			write(block[:fill])
			fill = 0
			if n+4 > len(block) {
				write(src[o : int(o)+n])
				continue
			}
		}
		if n <= 4 && o+4 <= size {
			s, d := src[o:o+4], block[fill:fill+4]
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
		} else {
			copy(block[fill:fill+n], src[o:])
		}
		fill += n
	}
	write(block[:fill])
}

// restoreState replaces a fresh index's state (and its assignment's) with a
// writeState section.
//
// It validates the section's internal consistency as it restores it: the
// held bitmap must have a word per 64 transactions and no bit past the
// last, the per-node columns must agree with it and with the assignment on
// their lengths, every count must be a minimal uvarint of at most
// math.MaxInt32 and the count columns must hold nothing past their values,
// a spent-out node must have a count, a held node must not be spent out
// exactly and must have no span once spent past its count, span lengths
// must be at most k and tile the slab exactly, and every vector's shards
// must ascend inside the assignment's range. Vectors are laid out as
// extend lays them out with no free slot, back to back, one that does not
// fit its chunk starting the next; a run of them in a chunk is one copy.
// The record table is packed: the held nodes take records 0, 1, ... in
// node order, and no record is free.
//
// It runs over blocks of spanBlock nodes, in two passes each, once the
// block's counts are decoded. The first sets every node's word to its
// output count behind spentOut, with no branch on whether it is held, and
// collects the spent-out nodes whose count is 0. The second walks the held
// nodes by the bitmap's set bits, gives each its record and lays out its
// span. A defect the first pass finds ends it, and is reported only once
// the second has checked the held nodes before it, so a section is refused
// naming the node or entry a single pass over the nodes would name.
func (t *T2SIndex) restoreState(r *placement.StateReader) error {
	if len(t.words) != 0 || t.tally.hasPending {
		return fmt.Errorf("core: restore into a non-empty T2S index (%d committed)", len(t.words))
	}
	if err := t.asn.RestoreState(r); err != nil {
		return err
	}
	k, width := t.asn.K(), placement.ShardWidth(t.asn.K())
	bitmap, outs, degs, lens, slabShards, slabVals := r.Column(8), r.Counts(), r.Counts(), r.Column(width), r.Column(width), r.Column(8)
	if err := r.Err(); err != nil {
		return err
	}
	nodes, entries := t.asn.Len(), len(slabShards)/width
	hm := func(i int) uint64 { return binary.LittleEndian.Uint64(bitmap[8*i:]) }
	if len(bitmap)/8 != (nodes+63)/64 {
		return fmt.Errorf("core: held bitmap of %d words for %d transactions", len(bitmap)/8, nodes)
	}
	heldTxs := 0
	for i := range len(bitmap) / 8 {
		heldTxs += bits.OnesCount64(hm(i))
	}
	if tail := nodes & 63; tail != 0 {
		if x := hm(nodes>>6) >> tail; x != 0 {
			return fmt.Errorf("core: held bitmap marks node %d, past the %d transactions", nodes+bits.TrailingZeros64(x), nodes)
		}
	}
	switch {
	case outs.N != nodes:
		return fmt.Errorf("core: %d output counts for %d transactions", outs.N, nodes)
	case degs.N != heldTxs:
		return fmt.Errorf("core: %d out-degrees for %d held transactions", degs.N, heldTxs)
	case len(lens)/width != heldTxs:
		return fmt.Errorf("core: %d span lengths for %d held transactions", len(lens)/width, heldTxs)
	case len(slabVals)/8 != entries:
		return fmt.Errorf("core: slab columns disagree: %d shards, %d values", entries, len(slabVals)/8)
	}
	if nodes > cap(t.words) {
		t.words = make([]uint32, 0, nodes)
	}
	t.words = t.words[:nodes]
	size := 1 << t.chunkBits
	c, filled, run := 0, 0, 0     // section entries [run, off) are laid out in chunk c and end at filled
	off, hp, dp, op := 0, 0, 0, 0 // offsets of the next slab entry, span length, out-degree and output count
	nrecs := 0                    // records handed out
	var chunk *[recChunk]t2sNode  // the chunk of record nrecs
	var overTxs, overRefs int64   // held nodes spent past their count, and the references past it
	var bDegs, bOuts [spanBlock]uint32
	for base := 0; base < nodes; base += spanBlock {
		words := t.words[base:min(base+spanBlock, nodes)]
		nOut := placement.DecodeCounts(bOuts[:len(words)], outs.Data, &op)
		var zero [spanBlock / 64]uint64 // bit i: node base+i has a count of 0
		for i, o := range bOuts[:nOut] {
			words[i] = spentOut | o
			zero[i>>6] |= uint64((o-1)>>31) << (i & 63)
			if o >= 1<<7 {
				t.keepOuts(txgraph.Node(base+i), int(o))
			}
		}
		// The first pass ends at the first node whose count does not decode
		// or is 0 with its bit clear: the held nodes before it are restored.
		stop, nw := nOut, (len(words)+63)>>6
		for j := range nw {
			if bad := zero[j] &^ hm(base>>6+j); bad != 0 {
				stop = j<<6 | bits.TrailingZeros64(bad)
				break
			}
		}
		nHeld := 0
		for j := range nw {
			nHeld += bits.OnesCount64(hm(base>>6 + j))
		}
		nDeg := placement.DecodeCounts(bDegs[:nHeld], degs.Data, &dp)
		hi := 0 // the block's held nodes restored
		for j := 0; j<<6 < stop; j++ {
			x := hm(base>>6 + j)
			if rest := stop - j<<6; rest < 64 {
				x &= 1<<rest - 1
			}
			for ; x != 0; x &= x - 1 {
				i := j<<6 | bits.TrailingZeros64(x)
				v, o, n := base+i, int32(bOuts[i]), int(placement.Shard(lens, hp, width))
				d := int32(bDegs[hi])
				if n > k || off+n > entries || hi >= nDeg || o > 0 && d >= o && (d == o || n != 0) {
					return heldDefect(v, n, k, off, entries, d, o, hi >= nDeg, degs.Data, dp)
				}
				if o > 0 && d > o {
					overTxs++
					overRefs += int64(d - o)
				}
				if nrecs&(recChunk-1) == 0 {
					if nrecs == len(t.recs)<<recBits {
						t.recs = append(t.recs, new([recChunk]t2sNode))
					}
					chunk = t.recs[nrecs>>recBits]
				}
				nd := &chunk[nrecs&(recChunk-1)]
				*nd = t2sNode{deg: d, n: uint16(n), outs: uint16(min(o, manyOuts))}
				words[i] = uint32(nrecs)
				nrecs, hp, hi = nrecs+1, hp+1, hi+1
				if n == 0 {
					continue
				}
				if filled+n > size {
					t.fillChunk(c, filled, width, slabShards[width*run:width*off], slabVals[8*run:8*off])
					c, filled, run = c+1, 0, off
				}
				start := uint64(c)<<t.chunkBits + uint64(filled)
				if start+uint64(n) > slabLimit {
					return fmt.Errorf("core: T2S slab is full: transaction %d would end at entry offset %d, past the limit of %d", v, start+uint64(n), slabLimit)
				}
				nd.off = uint32(start)
				filled += n
				for e, prev := off, -1; e < off+n; e++ {
					s := int(placement.Shard(slabShards, e, width))
					if s >= k {
						return fmt.Errorf("core: slab entry %d names shard %d of %d", e, s, k)
					}
					if s <= prev {
						return fmt.Errorf("core: slab entry %d names shard %d after shard %d of the same vector", e, s, prev)
					}
					prev = s
				}
				off += n
			}
		}
		if stop < nOut {
			return fmt.Errorf("core: node %d has no record but an output count of 0", base+stop)
		}
		if nOut < len(words) {
			return fmt.Errorf("core: output count of node %d: %s", base+nOut, placement.CountDefect(outs.Data, op))
		}
	}
	if dp != len(degs.Data) {
		return fmt.Errorf("core: out-degree column holds %d bytes past its %d values", len(degs.Data)-dp, heldTxs)
	}
	if op != len(outs.Data) {
		return fmt.Errorf("core: output-count column holds %d bytes past its %d values", len(outs.Data)-op, nodes)
	}
	if off != entries {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, entries)
	}
	if filled > 0 {
		t.fillChunk(c, filled, width, slabShards[width*run:width*off], slabVals[8*run:8*off])
	}
	t.cur, t.nrecs = c, nrecs
	t.entries = entries
	t.committed += entries
	t.spent = nodes - heldTxs
	t.retiredTxs += int64(t.spent) + overTxs
	t.retiredRefs += overRefs
	t.wideDegs = int64(len(degs.Data) - heldTxs)
	return nil
}

// heldDefect names the first defect of held node v's columns: a span longer
// than k or past the slab's end, an out-degree that is no count (badDeg:
// the one at degs[dp] is not), a record kept for a node spent out exactly,
// or a span kept for one spent past its count.
func heldDefect(v, n, k, off, entries int, deg, count int32, badDeg bool, degs []byte, dp int) error {
	switch {
	case n > k:
		return fmt.Errorf("core: span %d has %d entries, more than the %d shards", v, n, k)
	case off+n > entries:
		return fmt.Errorf("core: span %d (len %d at offset %d) exceeds slab length %d", v, n, off, entries)
	case badDeg:
		return fmt.Errorf("core: out-degree of node %d: %s", v, placement.CountDefect(degs, dp))
	case deg == count:
		return fmt.Errorf("core: node %d has had %d spenders of its %d outputs but keeps a record", v, deg, count)
	default:
		return fmt.Errorf("core: node %d has had %d spenders of its %d outputs but keeps a span of %d entries", v, deg, count, n)
	}
}

// spanBlock is how many nodes each pass of the restore covers before the
// other runs: small enough that the second pass finds the block's words
// and counts still in cache.
const spanBlock = 256

// fillChunk decodes a run of section entries, shard ids width bytes each,
// into chunk c, ending at filled, adding the chunk when it is the next one:
// a restored arena holds only the chunks its layout reaches.
func (t *T2SIndex) fillChunk(c, filled, width int, shards, vals []byte) {
	if c == len(t.slabS) {
		t.addChunk()
	}
	n := len(vals) / 8
	t.slabS[c], t.slabV[c] = t.slabS[c][:filled], t.slabV[c][:filled]
	dstS, dstV := t.slabS[c][filled-n:], t.slabV[c][filled-n:]
	if width == 1 {
		placement.Widen(dstS, shards)
	} else {
		for i := range dstS {
			dstS[i] = binary.LittleEndian.Uint16(shards[2*i:])
		}
	}
	for i := range dstV {
		dstV[i] = binary.LittleEndian.Uint64(vals[8*i:])
	}
}

// StateSize implements placement.Snapshotter.
func (p *OptChainPlacer) StateSize() int64 { return p.idx.stateSize() }

// WriteState implements placement.Snapshotter. The L2S latency model is
// live telemetry, not decision state: it re-attaches on the restored engine.
func (p *OptChainPlacer) WriteState(w *placement.StateWriter) { p.idx.writeState(w) }

// RestoreState implements placement.Snapshotter (see T2SIndex.restoreState).
func (p *OptChainPlacer) RestoreState(r *placement.StateReader) error { return p.idx.restoreState(r) }

var _ placement.Snapshotter = (*OptChainPlacer)(nil)
