package core

import (
	"encoding/binary"
	"fmt"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// The T2S state section is the index's output-count column, the
// assignment's shard column, then the index's other four columns. Shard ids
// and span lengths take placement.ShardWidth(k) bytes each (1 when k <= 255,
// else 2); a fixed-width column is a uvarint count and that many
// little-endian elements, a count column a uvarint count, a uvarint byte
// length and that many uvarints:
//
//	output counts  a count column, one uvarint per transaction (1 B below
//	               128; 0 for a count the source did not know)
//	shards         the assignment: 1 or 2 B per transaction
//	span lengths   1 or 2 B per transaction (entries of its p'(v), at most
//	               k; 0 for a retired transaction)
//	out-degrees    a count column, one uvarint per transaction (1 B below
//	               128)
//	slab shard ids 1 or 2 B per entry, live vectors back to back in
//	               transaction order: no free slots, no chunk padding
//	slab values    8 B per entry (Q32.32)
//
// Configuration (alpha, truncation, normalization, the output-count source)
// is construction input, not state — the restore target must be built with
// the same parameters. Which slots and records are free is not state
// either, nor which record a node has: a restored index is packed. The
// output counts are state: Alg. 1 divides p'(v) by them, and they tell
// which transactions are spent out, so the restore takes them from the
// section and never asks the source. The byte lengths of both count
// columns are kept as running totals (wideOuts, wideDegs), so a section's
// size takes no pass over the state.

// stateSize returns how many bytes writeState emits.
func (t *T2SIndex) stateSize() int64 {
	n, width := len(t.words), placement.ShardWidth(t.asn.K())
	return placement.CountsSize(n, int64(n)+t.wideOuts) + t.asn.StateSize() +
		placement.ColumnSize(n, width) + placement.CountsSize(n, int64(n)+t.wideDegs) +
		placement.ColumnSize(t.entries, width) + placement.ColumnSize(t.entries, 8)
}

// wordBlock is how many words a per-node column is encoded from at a time,
// straight into the writer's staging space: at 5 bytes a count at most, 20
// KiB of it.
const wordBlock = 4096

// held is one node with a record, as a snapshot reads it: its position
// and a copy of its record.
type held struct {
	v  uint32
	nd t2sNode
}

// heldNodes returns the nodes that have a record, in node order, with a
// copy of each record: 16 bytes a record the table has handed out, for the
// length of one writeState. Every per-node column reads those copies alone,
// in order: a spent-out word costs neither a record read nor a branch, and
// each record, which sits where the free list put it, is read from the
// table once a snapshot instead of once a column.
func (t *T2SIndex) heldNodes() []held {
	hs := make([]held, t.nrecs+1) // a word with a record has its own, and one spare
	m := 0
	for v, x := range t.words {
		hs[m].v = uint32(v)
		m += int(^x >> 31)
	}
	hs = hs[:m]
	for i := range hs {
		hs[i].nd = *t.rec(t.words[hs[i].v])
	}
	return hs
}

// writeState serializes the index's complete incremental state and the
// assignment. Each per-node column is encoded from the words a block at a
// time, the values of the nodes with a record taken from copies of their
// records, and the slab columns are gathered through those copies: five
// walks over the words or the copies, none over the arena's free slots or
// the record table's free records.
func (t *T2SIndex) writeState(w *placement.StateWriter) {
	if t.tally.hasPending {
		panic(fmt.Sprintf("core: snapshot between Prepare(%d) and Commit", t.tally.pendingNode))
	}
	hs := t.heldNodes()
	t.writeCounts(w, hs, t.wideOuts, func(h *held) uint32 { return uint32(t.outCount(txgraph.Node(h.v), h.nd.outs)) })
	t.asn.WriteState(w)
	width := placement.ShardWidth(t.asn.K())
	w.Uvarint(uint64(len(t.words)))
	t.eachBlock(hs, func(base int, words []uint32, hs []held) {
		b := w.Stage(width * len(words))
		clear(b) // a spent-out node has no span
		for _, h := range hs {
			if i := int(h.v) - base; width == 1 {
				b[i] = byte(h.nd.n)
			} else {
				binary.LittleEndian.PutUint16(b[2*i:], h.nd.n)
			}
		}
		w.Commit(len(b))
	})
	t.writeCounts(w, hs, t.wideDegs, func(h *held) uint32 { return uint32(h.nd.deg) })
	blockS, blockV := [2048]uint16{}, [1024]uint64{}
	w.Uvarint(uint64(t.entries))
	gather(t, hs, t.slabS, blockS[:], func(s []uint16) { w.Shards(s, width) })
	w.Uvarint(uint64(t.entries))
	gather(t, hs, t.slabV, blockV[:], w.Uint64s)
}

// eachBlock calls f for each block of up to wordBlock words, in order, with
// the block's first node, its words and the nodes of hs that fall in it.
func (t *T2SIndex) eachBlock(hs []held, f func(base int, words []uint32, hs []held)) {
	for base := 0; base < len(t.words); base += wordBlock {
		end := min(base+wordBlock, len(t.words))
		j := 0
		for j < len(hs) && int(hs[j].v) < end {
			j++
		}
		f(base, t.words[base:end], hs[:j])
		hs = hs[j:]
	}
}

// writeCounts writes a per-node count column of uvarints that take wide
// bytes past one each, encoded a block at a time straight into the
// writer's staging space: a spent-out node's value is its word's count
// (its out-degree equals it), a held node's is field of its record copy.
func (t *T2SIndex) writeCounts(w *placement.StateWriter, hs []held, wide int64, field func(*held) uint32) {
	w.Uvarint(uint64(len(t.words)))
	w.Uvarint(uint64(int64(len(t.words)) + wide))
	var vals [wordBlock]uint32
	t.eachBlock(hs, func(base int, words []uint32, hs []held) {
		for i, x := range words {
			vals[i] = x &^ spentOut
		}
		for i := range hs {
			vals[int(hs[i].v)-base] = field(&hs[i])
		}
		b, at := w.Stage(binary.MaxVarintLen32*len(words)), 0
		for _, v := range vals[:len(words)] {
			if v < 0x80 {
				b[at] = byte(v)
				at++
			} else {
				at += placement.PutCount(b[at:], v)
			}
		}
		w.Commit(at)
	})
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
// per-node columns must agree with each other, with the output counts and
// with the assignment on the transaction count, every count must be a
// minimal uvarint of at most math.MaxInt32 and the count columns must hold
// nothing past their values, span lengths must be at most k and tile the
// slab exactly, every vector's shards must ascend inside the assignment's
// range, and a node whose out-degree already covers its output count
// (restored retired) must have no span. Vectors are laid out as extend
// lays them out with no free slot, back to back, one that does not fit
// its chunk starting the next; a run of them in a chunk is one copy. The
// record table is packed: the nodes that are not spent out take records
// 0, 1, ... in node order, and no record is free.
//
// It runs over blocks of spanBlock nodes, in two passes each, once the
// block's counts are decoded. The first builds every word and record from
// the per-node columns, with nothing that depends on whether the node is
// live but the retired counters, added arithmetically, and the word and
// the next record's index, selected by mask (every node's record is
// written, and a spent-out node's is overwritten by the next), and
// collects the nodes that have a span. The second validates and lays out
// those spans alone, in node order. A defect the first pass finds ends it,
// and is reported only once the second has checked the spans before it, so
// a section is refused naming the node or entry a single pass over the
// nodes would name.
func (t *T2SIndex) restoreState(r *placement.StateReader) error {
	if len(t.words) != 0 || t.tally.hasPending {
		return fmt.Errorf("core: restore into a non-empty T2S index (%d committed)", len(t.words))
	}
	outs := r.Counts()
	if err := t.asn.RestoreState(r); err != nil {
		return err
	}
	k, width := t.asn.K(), placement.ShardWidth(t.asn.K())
	lens, degs, slabShards, slabVals := r.Column(width), r.Counts(), r.Column(width), r.Column(8)
	if err := r.Err(); err != nil {
		return err
	}
	nodes, entries := len(lens)/width, len(slabShards)/width
	if len(slabVals)/8 != entries {
		return fmt.Errorf("core: slab columns disagree: %d shards, %d values", entries, len(slabVals)/8)
	}
	if degs.N != nodes {
		return fmt.Errorf("core: per-node columns disagree: %d spans, %d out-degrees", nodes, degs.N)
	}
	if placed := t.asn.Len(); placed != nodes {
		return fmt.Errorf("core: assignment has %d placements but the T2S index %d", placed, nodes)
	}
	if outs.N != nodes {
		return fmt.Errorf("core: %d output counts for %d transactions", outs.N, nodes)
	}
	if nodes > cap(t.words) {
		t.words = make([]uint32, 0, nodes)
	}
	t.words = t.words[:nodes]
	size := 1 << t.chunkBits
	c, filled, run := 0, 0, 0    // section entries [run, at) are laid out in chunk c and end at filled
	off, at := 0, 0              // section offset of the next span: in the first pass, in the second
	dp, op := 0, 0               // offsets of the next out-degree and output count
	nrecs := 0                   // records handed out
	var chunk *[recChunk]t2sNode // the chunk of record nrecs
	var retiredTxs, retiredRefs int64
	defer func() {
		t.retiredTxs, t.retiredRefs = t.retiredTxs+retiredTxs, t.retiredRefs+retiredRefs
		// A chunk the last spent-out nodes' records were written to and no
		// live node took is dropped.
		used := (nrecs + recChunk - 1) >> recBits
		clear(t.recs[used:])
		t.recs, t.nrecs = t.recs[:used], nrecs
	}()
	var spans [spanBlock]int32
	var bDegs, bOuts [spanBlock]uint32
	for base := 0; base < nodes; base += spanBlock {
		words := t.words[base:min(base+spanBlock, nodes)]
		m := 0 // spans[:m]: the block's nodes that have a span
		var defect error
		// The block's counts first, as far as they decode: the out-degrees
		// of its first nDeg nodes and the output counts of its first nOut.
		nDeg := placement.DecodeCounts(bDegs[:len(words)], degs.Data, &dp)
		nOut := placement.DecodeCounts(bOuts[:len(words)], outs.Data, &op)
		for i := range words {
			n := int(placement.Shard(lens, base+i, width))
			d, o := int32(bDegs[i]), int32(bOuts[i])
			// dead is 1 when 0 < o <= d and spent 1 when 0 < o == d, read off
			// sign bits: as branches they would mispredict on about every
			// other node.
			dead := int32(uint32(-o)>>31) &^ int32(uint32(d-o)>>31)
			spent := dead & int32(^uint32((d-o)|(o-d))>>31)
			if n > k || off+n > entries || i >= nDeg || i >= nOut || dead != 0 && n != 0 {
				defect = nodeDefect(base+i, n, k, off, entries, d, o, i >= nDeg, i >= nOut, degs.Data, dp, outs.Data, op)
				break
			}
			retiredTxs += int64(dead)
			retiredRefs += int64(dead * (d - o))
			// The record holds the section's span length until the second
			// pass lays the span out.
			if nrecs&(recChunk-1) == 0 {
				if nrecs == len(t.recs)<<recBits {
					t.recs = append(t.recs, new([recChunk]t2sNode))
				}
				chunk = t.recs[nrecs>>recBits]
			}
			chunk[nrecs&(recChunk-1)] = t2sNode{deg: d, n: uint16(n), outs: t.keepOuts(txgraph.Node(base+i), int(o))}
			mask := uint32(-spent)
			words[i] = (spentOut|uint32(o))&mask | uint32(nrecs)&^mask
			nrecs += int(1 - spent)
			spans[m] = int32(i)
			m += min(n, 1)
			off += n
		}
		for _, i := range spans[:m] {
			v, nd := base+int(i), t.rec(words[i])
			n := int(nd.n)
			if filled+n > size {
				t.fillChunk(c, filled, width, slabShards[width*run:width*at], slabVals[8*run:8*at])
				c, filled, run = c+1, 0, at
			}
			start := uint64(c)<<t.chunkBits + uint64(filled)
			if start+uint64(n) > slabLimit {
				return fmt.Errorf("core: T2S slab is full: transaction %d would end at entry offset %d, past the limit of %d", v, start+uint64(n), slabLimit)
			}
			nd.off = uint32(start)
			filled += n
			for j, prev := at, -1; j < at+n; j++ {
				s := int(placement.Shard(slabShards, j, width))
				if s >= k {
					return fmt.Errorf("core: slab entry %d names shard %d of %d", j, s, k)
				}
				if s <= prev {
					return fmt.Errorf("core: slab entry %d names shard %d after shard %d of the same vector", j, s, prev)
				}
				prev = s
			}
			at += n
		}
		if defect != nil {
			return defect
		}
	}
	if dp != len(degs.Data) {
		return fmt.Errorf("core: out-degree column holds %d bytes past its %d values", len(degs.Data)-dp, nodes)
	}
	if op != len(outs.Data) {
		return fmt.Errorf("core: output-count column holds %d bytes past its %d values", len(outs.Data)-op, nodes)
	}
	if off != entries {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, entries)
	}
	if filled > 0 {
		t.fillChunk(c, filled, width, slabShards[width*run:width*at], slabVals[8*run:8*at])
	}
	t.cur = c
	t.entries = entries
	t.committed += entries
	t.wideDegs = int64(len(degs.Data) - nodes)
	return nil
}

// nodeDefect names the first defect of node v's per-node columns: a span
// longer than k or past the slab's end, an out-degree or output count that
// is no count (badDeg, badOut: the one at degs[dp] or outs[op] is not), or
// a span kept for a node whose outputs are all spent.
func nodeDefect(v, n, k, off, entries int, deg, count int32, badDeg, badOut bool, degs []byte, dp int, outs []byte, op int) error {
	switch {
	case n > k:
		return fmt.Errorf("core: span %d has %d entries, more than the %d shards", v, n, k)
	case off+n > entries:
		return fmt.Errorf("core: span %d (len %d at offset %d) exceeds slab length %d", v, n, off, entries)
	case badDeg:
		return fmt.Errorf("core: out-degree of node %d: %s", v, placement.CountDefect(degs, dp))
	case badOut:
		return fmt.Errorf("core: output count of node %d: %s", v, placement.CountDefect(outs, op))
	default:
		return fmt.Errorf("core: node %d has had %d spenders of its %d outputs but keeps a span of %d entries", v, deg, count, n)
	}
}

// spanBlock is how many nodes each pass of the restore covers before the
// other runs: small enough that the second pass finds the block's records
// and column bytes still in cache.
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
