package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"optchain/internal/dataset"
	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

type snapPlacer interface {
	placement.Placer
	placement.Snapshotter
}

// stateOf serializes one Snapshotter section and checks that StateSize
// predicted its length.
func stateOf(t testing.TB, s placement.Snapshotter) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := placement.NewStateWriter(&buf)
	s.WriteState(w)
	if err := w.Flush(); err != nil {
		t.Fatalf("write state: %v", err)
	}
	if int64(buf.Len()) != s.StateSize() || w.Len() != s.StateSize() {
		t.Fatalf("StateSize %d, wrote %d (writer counted %d)", s.StateSize(), buf.Len(), w.Len())
	}
	return buf.Bytes()
}

// TestCoreSnapshotterRoundTrip: T2S and full OptChain snapshot mid-stream
// and the restored placer continues with exactly the decisions of an
// uninterrupted run — the Snapshotter decision-fidelity contract over the
// slab arena, span table, and out-degree columns.
func TestCoreSnapshotterRoundTrip(t *testing.T) {
	const k, n, half = 4, 1200, 600
	cfg := dataset.DefaultConfig()
	cfg.N = n
	cfg.Seed = 33
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mks := map[string]func() snapPlacer{
		"T2S":      func() snapPlacer { return NewT2SPlacer(k, n, DefaultAlpha, 0.1) },
		"OptChain": func() snapPlacer { return NewOptChain(OptChainConfig{K: k, N: n}) },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			ref, cut := mk(), mk()
			want := make([]int, n)
			var buf []txgraph.Node
			for i := 0; i < n; i++ {
				buf = d.InputTxNodes(i, buf)
				want[i] = ref.Place(txgraph.Node(i), buf)
				if i < half {
					if got := cut.Place(txgraph.Node(i), buf); got != want[i] {
						t.Fatalf("tx %d: %d vs reference %d before snapshot", i, got, want[i])
					}
				}
			}
			blob := stateOf(t, cut)

			fresh := mk()
			r := placement.NewStateReader(blob)
			if err := fresh.RestoreState(r); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if r.Len() != 0 {
				t.Fatalf("%d bytes left after restore", r.Len())
			}
			if fresh.Assignment().Len() != half {
				t.Fatalf("restored %d placements, want %d", fresh.Assignment().Len(), half)
			}
			for i := half; i < n; i++ {
				buf = d.InputTxNodes(i, buf)
				if got := fresh.Place(txgraph.Node(i), buf); got != want[i] {
					t.Fatalf("%s diverges at tx %d after restore: %d, uninterrupted run chose %d",
						fresh.Name(), i, got, want[i])
				}
			}
		})
	}
}

// column encodes one length-prefixed column of little-endian elements.
func column[T uint16 | int32 | uint64](b []byte, vals []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		switch v := any(v).(type) {
		case uint16:
			b = binary.LittleEndian.AppendUint16(b, v)
		case int32:
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		case uint64:
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return b
}

// corruptSection builds a T2S state section (assignment column + index
// columns, format version 2) from raw parts, for defect injection.
func corruptSection(asnShards, lens []uint16, outDeg []int32, slabShards []uint16, slabVals []uint64) []byte {
	b := column(nil, asnShards)
	b = column(b, lens)
	b = column(b, outDeg)
	b = column(b, slabShards)
	return column(b, slabVals)
}

func TestCoreRestoreDefects(t *testing.T) {
	const k, n = 4, 16
	one := []uint16{0} // one transaction, placed in shard 0
	cases := map[string]struct {
		blob []byte
		want string
	}{
		"slab columns disagree": {
			blob: corruptSection(nil, nil, nil, []uint16{0}, nil),
			want: "slab columns disagree",
		},
		"per-node columns disagree": {
			blob: corruptSection(one, []uint16{0}, nil, nil, nil),
			want: "per-node columns disagree",
		},
		"slab shard out of range": {
			blob: corruptSection(one, []uint16{1}, []int32{0}, []uint16{9}, []uint64{1}),
			want: "names shard 9",
		},
		"span longer than k": {
			blob: corruptSection(one, []uint16{k + 1}, []int32{0}, []uint16{0, 1, 2, 3, 0}, []uint64{1, 1, 1, 1, 1}),
			want: "more than the 4 shards",
		},
		"span exceeds slab": {
			blob: corruptSection(one, []uint16{3}, []int32{0}, []uint16{0, 0}, []uint64{1, 1}),
			want: "exceeds slab length",
		},
		"spans undercover slab": {
			blob: corruptSection(one, []uint16{1}, []int32{0}, []uint16{0, 0}, []uint64{1, 1}),
			want: "cover 1 of 2",
		},
		"vector shards out of order": {
			blob: corruptSection(one, []uint16{2}, []int32{0}, []uint16{1, 1}, []uint64{1, 1}),
			want: "after shard 1 of the same vector",
		},
		"negative out-degree": {
			blob: corruptSection(one, []uint16{2}, []int32{-1}, []uint16{0, 1}, []uint64{1, 1}),
			want: "negative out-degree",
		},
		"assignment and index disagree": {
			blob: corruptSection(one, nil, nil, nil, nil),
			want: "assignment has 1 placements but the T2S index 0",
		},
		"assignment shard out of range": {
			blob: corruptSection([]uint16{k}, nil, nil, nil, nil),
			want: "in shard 4 of 4",
		},
		"truncated": {
			blob: corruptSection(nil, nil, nil, nil, nil)[:2],
			want: "truncated",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			p := NewT2SPlacer(k, n, DefaultAlpha, 0.1)
			err := p.RestoreState(placement.NewStateReader(tc.blob))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err=%v, want substring %q", err, tc.want)
			}
		})
	}

	// What the restore's retirement step accepts. Three transactions in
	// shard 0 declaring 1, 2 and 0 (unknown) outputs.
	outs := []int{1, 2, 0}
	restore := func(t *testing.T, lens []uint16, outDeg []int32, slabShards []uint16, slabVals []uint64) *T2SIndex {
		t.Helper()
		p := NewT2SPlacer(k, n, DefaultAlpha, 0.1)
		p.idx.SetOutCounts(func(v txgraph.Node) int { return outs[v] })
		if err := p.RestoreState(placement.NewStateReader(corruptSection([]uint16{0, 0, 0}, lens, outDeg, slabShards, slabVals))); err != nil {
			t.Fatal(err)
		}
		return p.idx
	}
	t.Run("spent out on an empty span", func(t *testing.T) {
		// What an index that retires writes: no span for the spent-out 0, and
		// its third spender counted as two late references.
		idx := restore(t, []uint16{0, 1, 1}, []int32{3, 1, 7}, []uint16{0, 0}, []uint64{5, 6})
		if txs, refs := idx.Retired(); txs != 1 || refs != 2 || idx.SlabLen() != 2 || freeSlots(idx) != 0 {
			t.Fatalf("%d retired, %d late references, %d entries, %d free slots: want 1, 2, 2, 0", txs, refs, idx.SlabLen(), freeSlots(idx))
		}
	})
	t.Run("live span of a spent-out node is dropped", func(t *testing.T) {
		// What an index that never retired wrote: 0 and 1 have had all their
		// spenders and still carry vectors; 2 never says how many it can have.
		idx := restore(t, []uint16{2, 1, 1}, []int32{1, 2, 9}, []uint16{0, 3, 0, 0}, []uint64{5, 6, 7, 8})
		if txs, refs := idx.Retired(); txs != 2 || refs != 0 || idx.SlabLen() != 1 {
			t.Fatalf("%d retired, %d late references, %d entries held: want 2, 0, 1", txs, refs, idx.SlabLen())
		}
		if len(idx.Vector(0)) != 0 || len(idx.Vector(1)) != 0 || idx.Vector(2)[0] == 0 || idx.OutDegree(1) != 2 {
			t.Fatalf("vectors %v %v %v, out-degree of 1 %d", idx.Vector(0), idx.Vector(1), idx.Vector(2), idx.OutDegree(1))
		}
		// The dropped spans were still checked like any other.
		p := NewT2SPlacer(k, n, DefaultAlpha, 0.1)
		p.idx.SetOutCounts(func(v txgraph.Node) int { return outs[v] })
		err := p.RestoreState(placement.NewStateReader(corruptSection([]uint16{0, 0, 0},
			[]uint16{2, 1, 1}, []int32{1, 2, 9}, []uint16{0, 9, 0, 0}, []uint64{5, 6, 7, 8})))
		if err == nil || !strings.Contains(err.Error(), "names shard 9") {
			t.Fatalf("bad shard in a dropped span: %v", err)
		}
	})

	t.Run("non-empty receiver", func(t *testing.T) {
		p := NewOptChain(OptChainConfig{K: k, N: n})
		p.Place(0, nil)
		err := p.RestoreState(placement.NewStateReader(corruptSection(nil, nil, nil, nil, nil)))
		if err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Fatalf("restore into placed-into placer: %v", err)
		}
	})
}

// TestSnapshotBetweenPrepareAndCommit: serializing between Prepare and
// Commit would capture a half-applied score update; it must panic rather
// than emit a silently inconsistent snapshot.
func TestSnapshotBetweenPrepareAndCommit(t *testing.T) {
	asn := placement.NewAssignment(2, 4)
	idx := NewT2SIndex(0.5, 0, asn, 4)
	idx.Prepare(0, nil)
	mustPanic(t, func() { idx.writeState(placement.NewStateWriter(&bytes.Buffer{})) })
}
