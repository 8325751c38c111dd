package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// The T2S state section is the assignment's shard column followed by the
// index's four columns, each a uvarint count and that many little-endian
// elements:
//
//	span lengths   2 B per transaction (entries of its p'(v), at most k;
//	               0 for a retired transaction)
//	out-degrees    4 B per transaction
//	slab shard ids 2 B per entry, live vectors back to back in transaction
//	               order: no free slots, no chunk padding
//	slab values    8 B per entry (Q32.32)
//
// Configuration (alpha, truncation, normalization, the output-count source)
// is construction input, not state — the restore target must be built with
// the same parameters. Which slots are free is not state either: a restored
// index is packed. The output counts the index keeps are state, but they
// travel in a column of their own (WriteOutCounts), which an engine
// snapshot carries ahead of this section and hands back to RestoreState.

// stateSize returns how many bytes writeState emits.
func (t *T2SIndex) stateSize() int64 {
	n := len(t.nodes)
	return t.asn.StateSize() +
		placement.ColumnSize(n, 2) + placement.ColumnSize(n, 4) +
		placement.ColumnSize(t.entries, 2) + placement.ColumnSize(t.entries, 8)
}

// writeState serializes the assignment and the index's complete incremental
// state. Each column is gathered from the node records, or through them
// from the slab, a block at a time: four walks over the records, none over
// the arena's free slots.
func (t *T2SIndex) writeState(w *placement.StateWriter) {
	if t.tally.hasPending {
		panic(fmt.Sprintf("core: snapshot between Prepare(%d) and Commit", t.tally.pendingNode))
	}
	t.asn.WriteState(w)
	w.Uvarint(uint64(len(t.nodes)))
	var lens [1024]uint16
	for recs := range slices.Chunk(t.nodes, len(lens)) {
		for i, nd := range recs {
			lens[i] = nd.n
		}
		w.Uint16s(lens[:len(recs)])
	}
	w.Uvarint(uint64(len(t.nodes)))
	var degs [1024]int32
	for recs := range slices.Chunk(t.nodes, len(degs)) {
		for i, nd := range recs {
			degs[i] = nd.deg
		}
		w.Int32s(degs[:len(recs)])
	}
	blockS, blockV := [2048]uint16{}, [1024]uint64{}
	w.Uvarint(uint64(t.entries))
	gather(t, t.slabS, blockS[:], w.Uint16s)
	w.Uvarint(uint64(t.entries))
	gather(t, t.slabV, blockV[:], w.Uint64s)
}

// gather writes one slab column of every live vector, in node order, a
// block at a time. Most records are retired, so each batch of records is
// first compacted to its live ones and only then read through: the slab
// reads, which miss the cache, are then many in flight at once. A vector
// of up to four entries is copied four wide, with no branch on its length.
func gather[T uint16 | uint64](t *T2SIndex, column [][]T, block []T, write func([]T)) {
	size := uint32(1) << t.chunkBits
	fill := 0
	var live [256]int32
	for recs := range slices.Chunk(t.nodes, len(live)) {
		m := 0
		for i := range recs {
			live[m] = int32(i)
			m += int(min(recs[i].n, 1))
		}
		for _, i := range live[:m] {
			n, src, o := int(recs[i].n), column[recs[i].off>>t.chunkBits], recs[i].off&(size-1)
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
	}
	write(block[:fill])
}

// WriteOutCounts writes the output count of every committed transaction as
// one column (a uvarint count, then an int32 per transaction, in node
// order), gathered from the node records a block at a time, a record that
// says manyOuts taking its count from bigOuts. A count the source gave as
// negative was kept, and is written, as 0 (unknown).
func (t *T2SIndex) WriteOutCounts(w *placement.StateWriter) {
	w.Uvarint(uint64(len(t.nodes)))
	var block [1024]int32
	big := t.bigOuts
	for recs := range slices.Chunk(t.nodes, len(block)) {
		for i, nd := range recs {
			block[i] = int32(nd.outs)
			if nd.outs == manyOuts {
				block[i], big = big[0].outs, big[1:]
			}
		}
		w.Int32s(block[:len(recs)])
	}
}

// RestoreState replaces a fresh index's state (and its assignment's) with a
// writeState section, the output counts taken from outs, the elements of a
// WriteOutCounts column; with outs nil they are asked of the index's source,
// which must then answer for every transaction (a dataset's does).
//
// It validates the section's internal consistency as it restores it: the
// per-node columns must agree with each other, with the output counts and
// with the assignment on the transaction count, span lengths
// must be at most k and tile the slab exactly, every vector's shards must
// ascend inside the assignment's range, and no out-degree may be negative.
// A node whose out-degree already covers its output count is restored
// retired, its span (an older writer kept one) checked and dropped, so
// liveness is what the uninterrupted index holds. Live vectors are laid out
// as extend lays them out with no free slot, back to back, one that does
// not fit its chunk starting the next; a run of them adjacent in the
// section and in a chunk is one copy.
//
// It runs over blocks of spanBlock nodes, in two passes each. The first
// builds every record from the per-node columns, with nothing that depends
// on whether the node is live but the retired counters, added
// arithmetically, and collects the nodes that have a span. The second
// validates and lays out those spans alone, in node order. A defect the
// first pass finds ends it, and is reported only once the second has
// checked the spans before it, so a section is refused naming the node or
// entry a single pass over the nodes would name.
func (t *T2SIndex) RestoreState(r *placement.StateReader, outs []byte) error {
	if len(t.nodes) != 0 || t.tally.hasPending {
		return fmt.Errorf("core: restore into a non-empty T2S index (%d committed)", len(t.nodes))
	}
	if err := t.asn.RestoreState(r); err != nil {
		return err
	}
	lens, outDeg, slabShards, slabVals := r.Column(2), r.Column(4), r.Column(2), r.Column(8)
	if err := r.Err(); err != nil {
		return err
	}
	nodes, entries := len(lens)/2, len(slabShards)/2
	if len(slabVals)/8 != entries {
		return fmt.Errorf("core: slab columns disagree: %d shards, %d values", entries, len(slabVals)/8)
	}
	if len(outDeg)/4 != nodes {
		return fmt.Errorf("core: per-node columns disagree: %d spans, %d out-degrees", nodes, len(outDeg)/4)
	}
	if placed := t.asn.Len(); placed != nodes {
		return fmt.Errorf("core: assignment has %d placements but the T2S index %d", placed, nodes)
	}
	if outs == nil {
		outs = t.askOutCounts(nodes)
	} else if len(outs) != 4*nodes {
		return fmt.Errorf("core: %d bytes of output counts for %d transactions", len(outs), nodes)
	}
	t.Reserve(nodes, entries) // every chunk the layout reaches
	t.nodes = t.nodes[:nodes]
	k, size := t.asn.K(), 1<<t.chunkBits
	c, filled, run := 0, 0, 0 // section entries [run, at) are live and end at filled in chunk c
	off, at := 0, 0           // section offset of the next span: in the first pass, in the second
	var retiredTxs, retiredRefs int64
	defer func() { t.retiredTxs, t.retiredRefs = t.retiredTxs+retiredTxs, t.retiredRefs+retiredRefs }()
	var spans [spanBlock]int32
	for base := 0; base < nodes; base += spanBlock {
		recs := t.nodes[base:min(base+spanBlock, nodes)]
		bLens, bDegs, bOuts := lens[2*base:2*(base+len(recs))], outDeg[4*base:4*(base+len(recs))], outs[4*base:4*(base+len(recs))]
		m := 0 // spans[:m]: 2i+1 for the block's i-th node if it has a span and is spent out, 2i if it is live
		var defect error
		for i := range recs {
			n := int(binary.LittleEndian.Uint16(bLens[2*i:]))
			deg := int32(binary.LittleEndian.Uint32(bDegs[4*i:]))
			if n > k || off+n > entries || deg < 0 {
				defect = nodeDefect(base+i, n, k, off, entries, deg)
				break
			}
			count := int32(binary.LittleEndian.Uint32(bOuts[4*i:]))
			// dead is 1 when 0 < o <= deg, read off two sign bits: as a branch
			// it would mispredict on about every other node.
			o := max(count, 0)
			dead := int32(uint32(-o)>>31) &^ int32(uint32(deg-o)>>31)
			retiredTxs += int64(dead)
			retiredRefs += int64(dead * (deg - o))
			// The record holds the section's span length until the second
			// pass lays the span out or drops it.
			recs[i] = t2sNode{deg: deg, n: uint16(n), outs: t.keepOuts(txgraph.Node(base+i), int(count))}
			spans[m] = int32(i)<<1 | dead
			m += min(n, 1)
			off += n
		}
		for _, sp := range spans[:m] {
			v, nd := base+int(sp>>1), &recs[sp>>1]
			n := int(nd.n)
			if sp&1 == 0 {
				if filled+n > size {
					t.fillChunk(c, filled, slabShards[2*run:2*at], slabVals[8*run:8*at])
					c, filled, run = c+1, 0, at
				}
				start := uint64(c)<<t.chunkBits + uint64(filled)
				if start+uint64(n) > slabLimit {
					return fmt.Errorf("core: T2S slab is full: transaction %d would end at entry offset %d, past the limit of %d", v, start+uint64(n), slabLimit)
				}
				nd.off = uint32(start)
				filled += n
				t.entries += n
			} else {
				nd.n = 0
			}
			for i, prev := at, -1; i < at+n; i++ {
				s := int(binary.LittleEndian.Uint16(slabShards[2*i:]))
				if s >= k {
					return fmt.Errorf("core: slab entry %d names shard %d of %d", i, s, k)
				}
				if s <= prev {
					return fmt.Errorf("core: slab entry %d names shard %d after shard %d of the same vector", i, s, prev)
				}
				prev = s
			}
			if sp&1 != 0 {
				t.fillChunk(c, filled, slabShards[2*run:2*at], slabVals[8*run:8*at])
				run = at + n
			}
			at += n
		}
		if defect != nil {
			return defect
		}
	}
	if off != entries {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, entries)
	}
	t.fillChunk(c, filled, slabShards[2*run:2*at], slabVals[8*run:8*at])
	t.cur = c
	t.committed += entries
	return nil
}

// nodeDefect names the first defect of node v's per-node columns: a span
// longer than k, a span past the slab's end, or a negative out-degree.
func nodeDefect(v, n, k, off, entries int, deg int32) error {
	switch {
	case n > k:
		return fmt.Errorf("core: span %d has %d entries, more than the %d shards", v, n, k)
	case off+n > entries:
		return fmt.Errorf("core: span %d (len %d at offset %d) exceeds slab length %d", v, n, off, entries)
	default:
		return fmt.Errorf("core: negative out-degree %d at node %d", deg, v)
	}
}

// spanBlock is how many nodes each pass of the restore covers before the
// other runs: small enough that the second pass finds the block's records
// and column bytes still in cache.
const spanBlock = 256

// askOutCounts builds the output-count column of a restore that was handed
// none, asking the index's source about each of the first nodes
// transactions; every count is 0 (unknown) without a source.
func (t *T2SIndex) askOutCounts(nodes int) []byte {
	col := make([]byte, 4*nodes)
	if t.outCounts != nil {
		for v := range nodes {
			count := min(max(t.outCounts(txgraph.Node(v)), 0), math.MaxInt32)
			binary.LittleEndian.PutUint32(col[4*v:], uint32(count))
		}
	}
	return col
}

// fillChunk decodes a run of section entries into chunk c, ending at filled.
func (t *T2SIndex) fillChunk(c, filled int, shards, vals []byte) {
	t.slabS[c], t.slabV[c] = t.slabS[c][:filled], t.slabV[c][:filled]
	dstS, dstV := t.slabS[c][filled-len(shards)/2:], t.slabV[c][filled-len(shards)/2:]
	for i := range dstS {
		dstS[i] = binary.LittleEndian.Uint16(shards[2*i:])
		dstV[i] = binary.LittleEndian.Uint64(vals[8*i:])
	}
}

// StateSize implements placement.Snapshotter.
func (p *OptChainPlacer) StateSize() int64 { return p.idx.stateSize() }

// WriteState implements placement.Snapshotter. The L2S latency model is
// live telemetry, not decision state: it re-attaches on the restored engine.
func (p *OptChainPlacer) WriteState(w *placement.StateWriter) { p.idx.writeState(w) }

// RestoreState implements placement.Snapshotter, with the output counts
// asked of the index's source (see T2SIndex.RestoreState); an engine hands
// its snapshot's count column to the index instead.
func (p *OptChainPlacer) RestoreState(r *placement.StateReader) error {
	return p.idx.RestoreState(r, nil)
}

var _ placement.Snapshotter = (*OptChainPlacer)(nil)
