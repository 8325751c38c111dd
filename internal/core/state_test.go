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
func stateOf(t *testing.T, s placement.Snapshotter) []byte {
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
