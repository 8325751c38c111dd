package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// The T2S state section is the assignment's section, then the index's
// columns, one per-node value only for the nodes that memory keeps a live
// record of. A node is held when it is neither spent out nor spent past
// its count; the others are retired, and nothing of them is state. Shard
// ids and span lengths take placement.ShardWidth(k) bytes each (1 when k
// <= 255, else 2); a fixed-width column is a uvarint count and that many
// little-endian elements, a count column a uvarint count, a uvarint byte
// length and that many uvarints:
//
//	assignment       the decision count and the packed words: half a byte
//	                 a transaction at k = 16
//	held bitmap      ⌈n/64⌉ 8-byte words, bit v%64 of word v/64 set when
//	                 node v is held; the bits past the last node are zero
//	late references  a uvarint: the references that named a retired node
//	output counts    a count column, one uvarint per held transaction (1 B
//	                 below 128; 0 for a count the source did not know)
//	out-degrees      a count column, one uvarint per held transaction (1 B
//	                 below 128)
//	span lengths     1 or 2 B per held transaction (entries of its p'(v),
//	                 at most k)
//	slab shard ids   1 or 2 B per entry, live vectors back to back in
//	                 transaction order: no free slots, no chunk padding
//	slab values      8 B per entry (Q32.32)
//
// Configuration (alpha, truncation, normalization, the output-count source)
// is construction input, not state — the restore target must be built with
// the same parameters. Which slots are free is not state either, nor which
// spent records a segment has not yet compacted away: a restored index is
// packed and compacted. The output counts of held nodes are state: Alg. 1
// divides p'(v) by them, so the restore takes them from the section and
// never asks the source. The live count and the byte lengths of both count
// columns are kept as running totals (live, wideOuts, wideDegs), so a
// section's size takes no pass over the state. Every column is written and
// restored a segment at a time.

// stateSize returns how many bytes writeState emits.
func (t *T2SIndex) stateSize() int64 {
	h, width := t.live, placement.ShardWidth(t.asn.K())
	return t.asn.StateSize() + placement.ColumnSize((t.nodes+63)/64, 8) + placement.UvarintLen(uint64(t.retiredRefs)) +
		placement.CountsSize(h, int64(h)+t.wideOuts) + placement.CountsSize(h, int64(h)+t.wideDegs) +
		placement.ColumnSize(h, width) + placement.ColumnSize(t.entries, width) + placement.ColumnSize(t.entries, 8)
}

// liveBits sets held to segment s's bitmap of held nodes, its bitmap of
// records less the spent ones, and returns how many of its words cover a
// node; *j is where the count of the segment's first manyOuts record is
// in bigOuts, and is left past its last.
func (t *T2SIndex) liveBits(s int, j *int, held *[segBlocks]uint64) int {
	sg := &t.segs[s]
	r := 0
	for b, word := range sg.held {
		held[b] = word
		for m := word; m != 0; m &= m - 1 {
			if nd := &sg.recs[r]; nd.spent(t.countAt(nd, j)) {
				held[b] &^= m & -m
			}
			r++
		}
	}
	return min(segBlocks, (t.nodes-s<<segBits+63)/64)
}

// countAt returns the output count of record nd, taking it from
// bigOuts[*j] when the record says manyOuts and advancing *j past it.
func (t *T2SIndex) countAt(nd *t2sNode, j *int) int32 {
	if nd.outs != manyOuts {
		return int32(nd.outs)
	}
	*j++
	return t.bigOuts[*j-1].outs
}

// liveRecs copies the records of segment s's held nodes, in node order,
// into recs and their output counts into outs, and returns how many; *j
// is as liveBits takes it.
func (t *T2SIndex) liveRecs(s int, j *int, recs *[segSize]t2sNode, outs *[segSize]uint32) int {
	m := 0
	for i := range t.segs[s].recs {
		nd := &t.segs[s].recs[i]
		o := t.countAt(nd, j)
		recs[m], outs[m] = *nd, uint32(o)
		if !nd.spent(o) {
			m++
		}
	}
	return m
}

// segScratch is what writeState decodes one segment's held records into:
// 84 KiB for the length of one snapshot.
type segScratch struct {
	recs [segSize]t2sNode
	outs [segSize]uint32
	vals [segSize]uint32
	lens [segSize]uint16
}

// writeState serializes the index's complete incremental state and the
// assignment. Each column is written a segment at a time, from copies of
// the segment's held records: no walk over the arena's free slots or a
// spent record's count.
func (t *T2SIndex) writeState(w *placement.StateWriter) {
	if t.tally.hasPending {
		panic(fmt.Sprintf("core: snapshot between Prepare(%d) and Commit", t.tally.pendingNode))
	}
	t.asn.WriteState(w)
	var held [segBlocks]uint64
	w.Uvarint(uint64((t.nodes + 63) / 64))
	for s, j := 0, 0; s < len(t.segs); s++ {
		w.Uint64s(held[:t.liveBits(s, &j, &held)])
	}
	w.Uvarint(uint64(t.retiredRefs))
	sc := new(segScratch)
	// each calls fn with the held records of every segment in turn.
	each := func(fn func(recs []t2sNode)) {
		for s, j := 0, 0; s < len(t.segs); s++ {
			fn(sc.recs[:t.liveRecs(s, &j, &sc.recs, &sc.outs)])
		}
	}
	w.Uvarint(uint64(t.live))
	w.Uvarint(uint64(int64(t.live) + t.wideOuts))
	each(func(recs []t2sNode) { putCounts(w, sc.outs[:len(recs)]) })
	w.Uvarint(uint64(t.live))
	w.Uvarint(uint64(int64(t.live) + t.wideDegs))
	each(func(recs []t2sNode) {
		for i := range recs {
			sc.vals[i] = uint32(recs[i].deg)
		}
		putCounts(w, sc.vals[:len(recs)])
	})
	width := placement.ShardWidth(t.asn.K())
	w.Uvarint(uint64(t.live))
	each(func(recs []t2sNode) {
		for i := range recs {
			sc.lens[i] = recs[i].n
		}
		w.Shards(sc.lens[:len(recs)], width)
	})
	gs := gatherer[uint16]{block: make([]uint16, 2048), write: func(s []uint16) { w.Shards(s, width) }}
	w.Uvarint(uint64(t.entries))
	each(func(recs []t2sNode) { gs.add(t, t.slabS, recs) })
	gs.flush()
	gv := gatherer[uint64]{block: make([]uint64, 1024), write: w.Uint64s}
	w.Uvarint(uint64(t.entries))
	each(func(recs []t2sNode) { gv.add(t, t.slabV, recs) })
	gv.flush()
}

// putCounts encodes vals, values of a count column, straight into the
// writer's staging space.
func putCounts(w *placement.StateWriter, vals []uint32) {
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

// gatherer writes one slab column of the live vectors, in node order,
// through a block it fills across segments. A vector of up to four entries
// is copied four wide, with no branch on its length.
type gatherer[T uint16 | uint64] struct {
	block []T
	fill  int
	write func([]T)
}

// add gathers the vectors of recs from column.
func (g *gatherer[T]) add(t *T2SIndex, column [][]T, recs []t2sNode) {
	size := uint32(1) << t.chunkBits
	for i := range recs {
		nd := &recs[i]
		n := int(nd.n)
		if n == 0 {
			continue // an empty vector
		}
		src, o := column[nd.off>>t.chunkBits], nd.off&(size-1)
		if g.fill+n+4 > len(g.block) {
			g.flush()
			if n+4 > len(g.block) {
				g.write(src[o : int(o)+n])
				continue
			}
		}
		if n <= 4 && o+4 <= size {
			s, d := src[o:o+4], g.block[g.fill:g.fill+4]
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
		} else {
			copy(g.block[g.fill:g.fill+n], src[o:])
		}
		g.fill += n
	}
}

// flush writes what the block holds.
func (g *gatherer[T]) flush() {
	g.write(g.block[:g.fill])
	g.fill = 0
}

// restoreState replaces a fresh index's state (and its assignment's) with a
// writeState section.
//
// It validates the section's internal consistency as it restores it: the
// held bitmap must have a word per 64 transactions and no bit past the
// last, the held nodes' columns must agree with its popcount on their
// lengths, every count must be a minimal uvarint of at most math.MaxInt32
// and the count columns must hold nothing past their values, a held node
// must not be spent out or past its count, span lengths must be at most k
// and tile the slab exactly, and every vector's shards must ascend inside
// the assignment's range. Vectors are laid out as extend lays them out
// with no free slot, back to back, one that does not fit its chunk
// starting the next; a run of them in a chunk is one copy. Each segment
// holds the records of its held nodes alone, in an allocation their size
// (the last, when it has room for more nodes, in one of segSize records):
// the index is compacted, and no slot is free. A node that is not held is
// retired.
//
// It runs a segment at a time: the segment's bitmap words, then the
// output counts and out-degrees of its held nodes, decoded at once, then
// its held nodes by the bitmap's set bits, each given its record and its
// span. A defect is reported at the node it is found at, in node order,
// so a section is refused naming the node or entry a single pass over the
// nodes would name.
func (t *T2SIndex) restoreState(r *placement.StateReader) error {
	if t.nodes != 0 || t.tally.hasPending {
		return fmt.Errorf("core: restore into a non-empty T2S index (%d committed)", t.nodes)
	}
	if err := t.asn.RestoreState(r); err != nil {
		return err
	}
	k, width := t.asn.K(), placement.ShardWidth(t.asn.K())
	bitmap, refs := r.Column(8), r.Uvarint()
	outs, degs, lens, slabShards, slabVals := r.Counts(), r.Counts(), r.Column(width), r.Column(width), r.Column(8)
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
	case refs > math.MaxInt64:
		return fmt.Errorf("core: %d late references", refs)
	case outs.N != heldTxs:
		return fmt.Errorf("core: %d output counts for %d held transactions", outs.N, heldTxs)
	case degs.N != heldTxs:
		return fmt.Errorf("core: %d out-degrees for %d held transactions", degs.N, heldTxs)
	case len(lens)/width != heldTxs:
		return fmt.Errorf("core: %d span lengths for %d held transactions", len(lens)/width, heldTxs)
	case len(slabVals)/8 != entries:
		return fmt.Errorf("core: slab columns disagree: %d shards, %d values", entries, len(slabVals)/8)
	}
	nsegs := (nodes + segSize - 1) / segSize
	if nsegs > cap(t.segs) {
		t.segs = make([]segment, 0, nsegs)
	}
	t.segs = t.segs[:nsegs]
	size := 1 << t.chunkBits
	c, filled, run := 0, 0, 0     // section entries [run, off) are laid out in chunk c and end at filled
	off, hp, dp, op := 0, 0, 0, 0 // offsets of the next slab entry, span length, out-degree and output count
	bOuts, bDegs := new([segSize]uint32), new([segSize]uint32)
	for s := range t.segs {
		sg := &t.segs[s]
		words := min(segBlocks, len(bitmap)/8-s*segBlocks)
		nHeld := 0
		for b := range words {
			sg.held[b] = hm(s*segBlocks + b)
			nHeld += bits.OnesCount64(sg.held[b])
		}
		if s == nsegs-1 && nodes&(segSize-1) != 0 {
			sg.recs = make([]t2sNode, nHeld, segSize)
		} else {
			sg.recs = slices.Grow([]t2sNode(nil), nHeld)[:nHeld]
		}
		nOut := placement.DecodeCounts(bOuts[:nHeld], outs.Data, &op)
		nDeg := placement.DecodeCounts(bDegs[:nHeld], degs.Data, &dp)
		ri := 0 // the segment's held nodes restored
		for b := range words {
			sg.prefix[b] = uint16(ri)
			for x := sg.held[b]; x != 0; x &= x - 1 {
				v := s<<segBits | b<<6 | bits.TrailingZeros64(x)
				n := int(placement.Shard(lens, hp, width))
				if ri >= nOut || ri >= nDeg || n > k || off+n > entries || bOuts[ri] > 0 && bDegs[ri] >= bOuts[ri] {
					return heldDefect(v, ri >= nOut, outs.Data, op, ri >= nDeg, degs.Data, dp, n, k, off, entries, bDegs[ri], bOuts[ri])
				}
				o := bOuts[ri]
				nd := &sg.recs[ri]
				*nd = t2sNode{deg: int32(bDegs[ri]), n: uint16(n), outs: t.keepOuts(txgraph.Node(v), int(o))}
				ri, hp = ri+1, hp+1
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
	}
	if dp != len(degs.Data) {
		return fmt.Errorf("core: out-degree column holds %d bytes past its %d values", len(degs.Data)-dp, heldTxs)
	}
	if op != len(outs.Data) {
		return fmt.Errorf("core: output-count column holds %d bytes past its %d values", len(outs.Data)-op, heldTxs)
	}
	if off != entries {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, entries)
	}
	if filled > 0 {
		t.fillChunk(c, filled, width, slabShards[width*run:width*off], slabVals[8*run:8*off])
	}
	t.cur, t.nodes, t.live = c, nodes, heldTxs
	t.entries = entries
	t.committed += entries
	t.retiredTxs += int64(nodes - heldTxs)
	t.retiredRefs += int64(refs)
	t.wideDegs = int64(len(degs.Data) - heldTxs)
	return nil
}

// heldDefect names the first defect of held node v's columns, in the order
// they are read: an output count or an out-degree that is no count (badOut,
// badDeg: the one at outs[op] or degs[dp] is not), a span longer than k or
// past the slab's end, or a node spent out, or past its count, kept held.
func heldDefect(v int, badOut bool, outs []byte, op int, badDeg bool, degs []byte, dp, n, k, off, entries int, deg, count uint32) error {
	switch {
	case badOut:
		return fmt.Errorf("core: output count of node %d: %s", v, placement.CountDefect(outs, op))
	case badDeg:
		return fmt.Errorf("core: out-degree of node %d: %s", v, placement.CountDefect(degs, dp))
	case n > k:
		return fmt.Errorf("core: span %d has %d entries, more than the %d shards", v, n, k)
	case off+n > entries:
		return fmt.Errorf("core: span %d (len %d at offset %d) exceeds slab length %d", v, n, off, entries)
	default:
		return fmt.Errorf("core: node %d has had %d spenders of its %d outputs but is held", v, deg, count)
	}
}

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
