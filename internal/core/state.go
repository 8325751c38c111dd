package core

import (
	"encoding/binary"
	"fmt"
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
// index is packed.

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

// restoreState replaces a fresh index's state (and its assignment's) with a
// writeState section, validating internal consistency: the per-node columns
// must agree with each other and with the assignment on the transaction
// count, span lengths must be at most k and tile the slab exactly, every
// vector's shards must ascend inside the assignment's range, and no
// out-degree may be negative. A node whose out-degree already covers its
// output count is restored retired, its span (an older writer kept one)
// checked and dropped, so liveness is what the uninterrupted index holds.
// It is one pass: live vectors are laid out as extend lays them out with no
// free slot, back to back, one that does not fit its chunk starting the
// next; a run of them adjacent in the section and in a chunk is one copy.
func (t *T2SIndex) restoreState(r *placement.StateReader) error {
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
	t.Reserve(nodes, entries) // every chunk the layout reaches
	t.nodes = t.nodes[:nodes]
	k, size := t.asn.K(), 1<<t.chunkBits
	c, filled, run, off := 0, 0, 0, 0 // section entries [run, off) are live and end at filled in chunk c
	for v := range t.nodes {
		n := int(binary.LittleEndian.Uint16(lens[2*v:]))
		if n > k {
			return fmt.Errorf("core: span %d has %d entries, more than the %d shards", v, n, k)
		}
		if off+n > entries {
			return fmt.Errorf("core: span %d (len %d at offset %d) exceeds slab length %d", v, n, off, entries)
		}
		nd := t2sNode{deg: int32(binary.LittleEndian.Uint32(outDeg[4*v:]))}
		if nd.deg < 0 {
			return fmt.Errorf("core: negative out-degree %d at node %d", nd.deg, v)
		}
		if t.outCounts != nil {
			nd.outs = uint16(min(max(t.outCounts(txgraph.Node(v)), 0), manyOuts))
		}
		outs := t.outCount(txgraph.Node(v), nd.outs)
		dead := outs > 0 && nd.deg >= outs
		if dead {
			t.retiredTxs++
			t.retiredRefs += int64(nd.deg - outs)
		} else if n > 0 {
			if filled+n > size {
				t.fillChunk(c, filled, slabShards[2*run:2*off], slabVals[8*run:8*off])
				c, filled, run = c+1, 0, off
			}
			start := uint64(c)<<t.chunkBits + uint64(filled)
			if start+uint64(n) > slabLimit {
				return fmt.Errorf("core: T2S slab is full: transaction %d would end at entry offset %d, past the limit of %d", v, start+uint64(n), slabLimit)
			}
			nd.off, nd.n = uint32(start), uint16(n)
			filled += n
			t.entries += n
		}
		for i, prev := off, -1; i < off+n; i++ {
			s := int(binary.LittleEndian.Uint16(slabShards[2*i:]))
			if s >= k {
				return fmt.Errorf("core: slab entry %d names shard %d of %d", i, s, k)
			}
			if s <= prev {
				return fmt.Errorf("core: slab entry %d names shard %d after shard %d of the same vector", i, s, prev)
			}
			prev = s
		}
		if dead && n > 0 {
			t.fillChunk(c, filled, slabShards[2*run:2*off], slabVals[8*run:8*off])
			run = off + n
		}
		t.nodes[v] = nd
		off += n
	}
	if off != entries {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, entries)
	}
	t.fillChunk(c, filled, slabShards[2*run:2*off], slabVals[8*run:8*off])
	t.cur = c
	t.committed += entries
	return nil
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

// RestoreState implements placement.Snapshotter.
func (p *OptChainPlacer) RestoreState(r *placement.StateReader) error { return p.idx.restoreState(r) }

var _ placement.Snapshotter = (*OptChainPlacer)(nil)
