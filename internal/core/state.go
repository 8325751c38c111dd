package core

import (
	"encoding/binary"
	"fmt"

	"optchain/internal/placement"
)

// The T2S state section is the assignment's shard column followed by the
// index's four columns, each a uvarint count and that many little-endian
// elements:
//
//	span lengths   2 B per transaction (entries of its p'(v), at most k)
//	out-degrees    4 B per transaction
//	slab shard ids 2 B per entry, vectors back to back, no chunk padding
//	slab values    8 B per entry (Q32.32)
//
// Configuration (alpha, truncation, normalization) is construction input,
// not state — the restore target must be built with the same parameters.

// stateSize returns how many bytes writeState emits.
func (t *T2SIndex) stateSize() int64 {
	n := len(t.outDeg)
	return t.asn.StateSize() +
		placement.ColumnSize(n, 2) + placement.ColumnSize(n, 4) +
		placement.ColumnSize(t.entries, 2) + placement.ColumnSize(t.entries, 8)
}

// writeState serializes the assignment and the index's complete incremental
// state. The columns are written as they are held; only the span lengths
// are computed, a block at a time, from the end offsets.
func (t *T2SIndex) writeState(w *placement.StateWriter) {
	if t.tally.hasPending {
		panic(fmt.Sprintf("core: snapshot between Prepare(%d) and Commit", t.tally.pendingNode))
	}
	t.asn.WriteState(w)
	n := len(t.outDeg)
	w.Uvarint(uint64(n))
	var block [1024]uint16
	for v := 0; v < n; {
		m := min(n-v, len(block))
		for i := range block[:m] {
			shards, _ := t.vec(int32(v + i))
			block[i] = uint16(len(shards))
		}
		w.Uint16s(block[:m])
		v += m
	}
	w.Uvarint(uint64(n))
	w.Int32s(t.outDeg)
	w.Uvarint(uint64(t.entries))
	for _, chunk := range t.slabS {
		w.Uint16s(chunk)
	}
	w.Uvarint(uint64(t.entries))
	for _, chunk := range t.slabV {
		w.Uint64s(chunk)
	}
}

// restoreState replaces a fresh index's state (and its assignment's) with a
// writeState section, validating internal consistency: the per-node columns
// must agree with each other and with the assignment on the transaction
// count, span lengths must be at most k and tile the slab exactly, every
// slab shard must be inside the assignment's range, and no out-degree may
// be negative. Vectors are re-appended one by one, so the restored slab is
// laid out by the same routine that built the original.
func (t *T2SIndex) restoreState(r *placement.StateReader) error {
	if len(t.outDeg) != 0 || t.tally.hasPending {
		return fmt.Errorf("core: restore into a non-empty T2S index (%d committed)", len(t.outDeg))
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
			shards[i] = s
			vals[i] = binary.LittleEndian.Uint64(srcV[8*i:])
		}
		off += n
	}
	if off != entries {
		return fmt.Errorf("core: spans cover %d of %d slab entries", off, entries)
	}
	for v := range t.outDeg {
		d := int32(binary.LittleEndian.Uint32(outDeg[4*v:]))
		if d < 0 {
			return fmt.Errorf("core: negative out-degree %d at node %d", d, v)
		}
		t.outDeg[v] = d
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
