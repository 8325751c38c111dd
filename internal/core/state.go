package core

import (
	"encoding/binary"
	"fmt"

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
	n := len(t.nodes)
	w.Uvarint(uint64(n))
	var lens [1024]uint16
	for v := 0; v < n; v += len(lens) {
		m := min(n-v, len(lens))
		for i, nd := range t.nodes[v : v+m] {
			lens[i] = nd.n
		}
		w.Uint16s(lens[:m])
	}
	w.Uvarint(uint64(n))
	var degs [1024]int32
	for v := 0; v < n; v += len(degs) {
		m := min(n-v, len(degs))
		for i, nd := range t.nodes[v : v+m] {
			degs[i] = nd.deg
		}
		w.Int32s(degs[:m])
	}
	var blockS [2048]uint16
	var blockV [1024]uint64
	w.Uvarint(uint64(t.entries))
	gather(t, t.slabS, blockS[:], w.Uint16s)
	w.Uvarint(uint64(t.entries))
	gather(t, t.slabV, blockV[:], w.Uint64s)
}

// gather writes one slab column of every live vector, in node order. A
// vector is one or two entries on most streams, so they are collected in
// block and the writer is called once per block, not once per vector.
func gather[T uint16 | uint64](t *T2SIndex, column [][]T, block []T, write func([]T)) {
	fill := 0
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.n == 0 {
			continue
		}
		if fill+int(nd.n) > len(block) {
			write(block[:fill])
			fill = 0
		}
		o := int(nd.off & (1<<t.chunkBits - 1))
		vec := column[nd.off>>t.chunkBits][o : o+int(nd.n)]
		if len(vec) > len(block) {
			write(vec)
			continue
		}
		for _, x := range vec {
			block[fill] = x
			fill++
		}
	}
	write(block[:fill])
}

// restoreState replaces a fresh index's state (and its assignment's) with a
// writeState section, validating internal consistency: the per-node columns
// must agree with each other and with the assignment on the transaction
// count, span lengths must be at most k and tile the slab exactly, every
// vector's shards must ascend inside the assignment's range, and no
// out-degree may be negative. Vectors are re-added one by one, so the
// restored slab is laid out by the same routine that built the original. A
// node whose out-degree already covers its output count is restored
// retired — its span, if the section still carries one, is dropped — so
// liveness after a restore is what the uninterrupted index would hold,
// whatever wrote the section.
func (t *T2SIndex) restoreState(r *placement.StateReader) error {
	if len(t.nodes) != 0 || t.tally.hasPending {
		return fmt.Errorf("core: restore into a non-empty T2S index (%d committed)", len(t.nodes))
	}
	if err := t.asn.RestoreState(r); err != nil {
		return err
	}
	lens := r.Column(2)
	outDeg := r.Column(4)
	slabShards := r.Column(2)
	slabVals := r.Column(8)
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
	t.Reserve(nodes, entries)
	k := t.asn.K()
	off := 0
	for v := 0; v < nodes; v++ {
		n := int(binary.LittleEndian.Uint16(lens[2*v:]))
		if n > k {
			return fmt.Errorf("core: span %d has %d entries, more than the %d shards", v, n, k)
		}
		if off+n > entries {
			return fmt.Errorf("core: span %d (len %d at offset %d) exceeds slab length %d", v, n, off, entries)
		}
		d := int32(binary.LittleEndian.Uint32(outDeg[4*v:]))
		if d < 0 {
			return fmt.Errorf("core: negative out-degree %d at node %d", d, v)
		}
		shards, vals, err := t.extend(n)
		if err != nil {
			return err
		}
		srcS, srcV := slabShards[2*off:2*(off+n)], slabVals[8*off:8*(off+n)]
		for i := range shards {
			s := binary.LittleEndian.Uint16(srcS[2*i:])
			if int(s) >= k {
				return fmt.Errorf("core: slab entry %d names shard %d of %d", off+i, s, k)
			}
			if i > 0 && s <= shards[i-1] {
				return fmt.Errorf("core: slab entry %d names shard %d after shard %d of the same vector", off+i, s, shards[i-1])
			}
			shards[i] = s
			vals[i] = binary.LittleEndian.Uint64(srcV[8*i:])
		}
		off += n
		t.addSpenders(txgraph.Node(v), d)
	}
	if off != entries {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, entries)
	}
	return nil
}

// StateSize implements placement.Snapshotter.
func (p *T2SPlacer) StateSize() int64 { return p.idx.stateSize() }

// WriteState implements placement.Snapshotter: the assignment's decisions
// followed by the T2S index state.
func (p *T2SPlacer) WriteState(w *placement.StateWriter) { p.idx.writeState(w) }

// RestoreState implements placement.Snapshotter. The receiver must be fresh
// and configured identically to the snapshot's producer.
func (p *T2SPlacer) RestoreState(r *placement.StateReader) error { return p.idx.restoreState(r) }

// StateSize implements placement.Snapshotter.
func (p *OptChainPlacer) StateSize() int64 { return p.idx.stateSize() }

// WriteState implements placement.Snapshotter. The L2S latency model is
// live telemetry, not decision state: it re-attaches on the restored engine.
func (p *OptChainPlacer) WriteState(w *placement.StateWriter) { p.idx.writeState(w) }

// RestoreState implements placement.Snapshotter.
func (p *OptChainPlacer) RestoreState(r *placement.StateReader) error { return p.idx.restoreState(r) }

// Compile-time interface compliance checks.
var (
	_ placement.Snapshotter = (*T2SPlacer)(nil)
	_ placement.Snapshotter = (*OptChainPlacer)(nil)
)
