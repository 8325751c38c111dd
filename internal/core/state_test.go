package core

import (
	"bytes"
	"encoding/binary"
	"math"
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

// column encodes one length-prefixed column of elements: shard ids and
// span lengths 1 byte each (a section over at most 255 shards), values 8
// bytes little-endian.
func column[T uint16 | uint64](b []byte, vals []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(vals)))
	for _, v := range vals {
		switch v := any(v).(type) {
		case uint16:
			b = append(b, byte(v))
		case uint64:
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	return b
}

// counts encodes a count column holding vals.
func counts(vals ...uint64) []byte {
	var data []byte
	for _, v := range vals {
		data = binary.AppendUvarint(data, v)
	}
	return rawCounts(len(vals), data...)
}

// rawCounts encodes a count column that claims n values in data.
func rawCounts(n int, data ...byte) []byte {
	b := binary.AppendUvarint(nil, uint64(n))
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

// corruptSection builds a T2S state section over at most 255 shards
// (output counts, assignment column, index columns) from raw parts, the
// output counts and out-degrees encoded count columns, for defect
// injection.
func corruptSection(outs []byte, asnShards, lens []uint16, degs []byte, slabShards []uint16, slabVals []uint64) []byte {
	b := column(outs, asnShards)
	b = column(b, lens)
	b = append(b, degs...)
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
			blob: corruptSection(counts(), nil, nil, counts(), []uint16{0}, nil),
			want: "slab columns disagree",
		},
		"per-node columns disagree": {
			blob: corruptSection(counts(0), one, []uint16{0}, counts(), nil, nil),
			want: "per-node columns disagree",
		},
		"slab shard out of range": {
			blob: corruptSection(counts(0), one, []uint16{1}, counts(0), []uint16{9}, []uint64{1}),
			want: "names shard 9",
		},
		"span longer than k": {
			blob: corruptSection(counts(0), one, []uint16{k + 1}, counts(0), []uint16{0, 1, 2, 3, 0}, []uint64{1, 1, 1, 1, 1}),
			want: "more than the 4 shards",
		},
		"span exceeds slab": {
			blob: corruptSection(counts(0), one, []uint16{3}, counts(0), []uint16{0, 0}, []uint64{1, 1}),
			want: "exceeds slab length",
		},
		"spans undercover slab": {
			blob: corruptSection(counts(0), one, []uint16{1}, counts(0), []uint16{0, 0}, []uint64{1, 1}),
			want: "cover 1 of 2",
		},
		"vector shards out of order": {
			blob: corruptSection(counts(0), one, []uint16{2}, counts(0), []uint16{1, 1}, []uint64{1, 1}),
			want: "after shard 1 of the same vector",
		},
		"out-degree above MaxInt32": {
			blob: corruptSection(counts(0), one, []uint16{2}, counts(math.MaxInt32+1), []uint16{0, 1}, []uint64{1, 1}),
			want: "out-degree of node 0: 2147483648 exceeds 2147483647",
		},
		"negative out-degree": {
			// What a writer that cast a negative int64 to uint64 would emit.
			blob: corruptSection(counts(0), one, []uint16{2}, counts(math.MaxUint64), []uint16{0, 1}, []uint64{1, 1}),
			want: "out-degree of node 0: 18446744073709551615 exceeds 2147483647",
		},
		"truncated out-degree": {
			blob: corruptSection(counts(0, 0), []uint16{0, 0}, []uint16{0, 0}, rawCounts(2, 5, 0x80), nil, nil),
			want: "out-degree of node 1: truncated uvarint",
		},
		"out-degree over 10 bytes": {
			blob: corruptSection(counts(0), one, []uint16{0}, rawCounts(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), nil, nil),
			want: "out-degree of node 0: uvarint overflows 64 bits",
		},
		"out-degree overflows 64 bits": {
			blob: corruptSection(counts(0), one, []uint16{0}, rawCounts(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02), nil, nil),
			want: "out-degree of node 0: uvarint overflows 64 bits",
		},
		"non-minimal out-degree": {
			blob: corruptSection(counts(0), one, []uint16{0}, rawCounts(1, 0x83, 0x00), nil, nil),
			want: "out-degree of node 0: non-minimal uvarint",
		},
		"more out-degrees than bytes": {
			blob: corruptSection(counts(0), one, []uint16{0}, rawCounts(2, 0), nil, nil),
			want: "count column of 2 values in 1 bytes",
		},
		"out-degree column longer than its values": {
			blob: corruptSection(counts(0), one, []uint16{0}, rawCounts(1, 0, 0), nil, nil),
			want: "out-degree column holds 1 bytes past its 1 values",
		},
		"output count above MaxInt32": {
			blob: corruptSection(counts(3, 1<<40), []uint16{0, 0}, []uint16{0, 0}, counts(0, 0), nil, nil),
			want: "output count of node 1: 1099511627776 exceeds 2147483647",
		},
		"truncated output count": {
			blob: corruptSection(rawCounts(1, 0xff), one, []uint16{0}, counts(0), nil, nil),
			want: "output count of node 0: truncated uvarint",
		},
		"non-minimal output count": {
			blob: corruptSection(rawCounts(1, 0x80, 0x80, 0x00), one, []uint16{0}, counts(0), nil, nil),
			want: "output count of node 0: non-minimal uvarint",
		},
		"output counts for another transaction count": {
			blob: corruptSection(counts(1, 1), one, []uint16{0}, counts(0), nil, nil),
			want: "2 output counts for 1 transactions",
		},
		"output-count column longer than its values": {
			blob: corruptSection(rawCounts(1, 1, 7), one, []uint16{0}, counts(0), nil, nil),
			want: "output-count column holds 1 bytes past its 1 values",
		},
		"span of a spent-out node": {
			// 1 has had both its spenders and still carries a vector: a writer
			// that retires never leaves one.
			blob: corruptSection(counts(2, 2), []uint16{0, 0}, []uint16{1, 1}, counts(0, 2), []uint16{0, 3}, []uint64{5, 6}),
			want: "node 1 has had 2 spenders of its 2 outputs but keeps a span of 1 entries",
		},
		"assignment and index disagree": {
			blob: corruptSection(counts(0), one, nil, counts(), nil, nil),
			want: "assignment has 1 placements but the T2S index 0",
		},
		"assignment shard out of range": {
			blob: corruptSection(counts(0), []uint16{k}, nil, counts(), nil, nil),
			want: "in shard 4 of 4",
		},
		"truncated": {
			blob: corruptSection(counts(), nil, nil, counts(), nil, nil)[:2],
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

	t.Run("spent out on an empty span", func(t *testing.T) {
		// What an index that retires writes: three transactions in shard 0
		// declaring 1, 2 and 0 (unknown) outputs; no span for the spent-out
		// 0, and its third spender counted as two late references.
		p := NewT2SPlacer(k, n, DefaultAlpha, 0.1)
		section := corruptSection(counts(1, 2, 0), []uint16{0, 0, 0}, []uint16{0, 1, 1}, counts(3, 1, 7), []uint16{0, 0}, []uint64{5, 6})
		if err := p.RestoreState(placement.NewStateReader(section)); err != nil {
			t.Fatal(err)
		}
		if txs, refs := p.idx.Retired(); txs != 1 || refs != 2 || p.idx.SlabLen() != 2 || freeSlots(p.idx) != 0 {
			t.Fatalf("%d retired, %d late references, %d entries, %d free slots: want 1, 2, 2, 0", txs, refs, p.idx.SlabLen(), freeSlots(p.idx))
		}
	})

	t.Run("non-empty receiver", func(t *testing.T) {
		p := NewOptChain(OptChainConfig{K: k, N: n})
		p.Place(0, nil)
		err := p.RestoreState(placement.NewStateReader(corruptSection(counts(), nil, nil, counts(), nil, nil)))
		if err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Fatalf("restore into placed-into placer: %v", err)
		}
	})
}

// TestShardWidthBoundary: over 255 shards a section stores shard ids and
// span lengths a byte each, over 256 two bytes each; at both a vector over
// every shard (span length k, shard id k-1) survives the round trip, and
// the section is the size the widths make it.
func TestShardWidthBoundary(t *testing.T) {
	for _, k := range []int{255, 256} {
		p := NewT2SPlacer(k, 0, DefaultAlpha, 0.1)
		shards, vals := make([]uint16, k), make([]uint64, k)
		for i := range shards {
			shards[i], vals[i] = uint16(i), uint64(i+1)
		}
		if err := p.idx.appendVec(shards, vals); err != nil {
			t.Fatal(err)
		}
		p.idx.asn.Place(0, k-1)
		section := stateOf(t, p)
		width := int64(placement.ShardWidth(k))
		// Assignment and span lengths: a count and one element each; one
		// 1-byte output count and one 1-byte out-degree; k shard ids and k
		// values, each behind a 2-byte count.
		if want := 2*(1+width) + 2*3 + (2 + width*int64(k)) + (2 + 8*int64(k)); int64(len(section)) != want {
			t.Fatalf("k=%d: a %d-byte section, want %d", k, len(section), want)
		}
		fresh := NewT2SPlacer(k, 0, DefaultAlpha, 0.1)
		if err := fresh.RestoreState(placement.NewStateReader(section)); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		sameVectors(t, fresh.idx, p.idx)
		if fresh.Assignment().ShardOf(0) != k-1 {
			t.Fatalf("k=%d: transaction 0 restored in shard %d", k, fresh.Assignment().ShardOf(0))
		}
	}
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

// TestOverspentAcrossRestore: transaction 0 declares two outputs. Its two
// spenders leave it spent out (its word holds the count, no record), later
// ones name it anyway. Snapshots cut while it is spent out and after the
// first late reference (it has a record again, with no vector) restore to
// indexes that count the same late references and retired transactions,
// decide the same and write the same section bytes as the uninterrupted
// index, transaction by transaction.
func TestOverspentAcrossRestore(t *testing.T) {
	const k = 4
	outs := []int{2, 1, 1, 1, 1, 1, 1, 1}
	inputs := [][]txgraph.Node{nil, {0}, {0, 1}, {0}, {0, 3}, {2}, {4, 0}, {5}}
	mk := func() *OptChainPlacer {
		p := NewOptChain(OptChainConfig{K: k, N: len(outs)})
		p.idx.SetOutCounts(func(v txgraph.Node) int { return outs[v] })
		return p
	}
	for _, cut := range []int{3, 4} {
		whole, before := mk(), mk()
		for u := 0; u < cut; u++ {
			whole.Place(txgraph.Node(u), inputs[u])
			before.Place(txgraph.Node(u), inputs[u])
		}
		if spent := whole.idx.words[0]&spentOut != 0; spent != (cut == 3) {
			t.Fatalf("cut %d: transaction 0 spent out %v", cut, spent)
		}
		blob := stateOf(t, before)
		restored := mk()
		if err := restored.RestoreState(placement.NewStateReader(blob)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(stateOf(t, restored), blob) {
			t.Fatalf("cut %d: the restored index writes other bytes than it read", cut)
		}
		for u := cut; u < len(inputs); u++ {
			a, b := whole.Place(txgraph.Node(u), inputs[u]), restored.Place(txgraph.Node(u), inputs[u])
			wt, wr := whole.idx.Retired()
			rt, rr := restored.idx.Retired()
			if a != b || wt != rt || wr != rr {
				t.Fatalf("cut %d, tx %d: shard %d, %d retired, %d late references; uninterrupted %d, %d, %d", cut, u, b, rt, rr, a, wt, wr)
			}
			if !bytes.Equal(stateOf(t, restored), stateOf(t, whole)) {
				t.Fatalf("cut %d, tx %d: the sections differ", cut, u)
			}
		}
		// 0 was named by five spenders of its two outputs; 1 to 5 were
		// spent once, as declared, and 6 and 7 not at all.
		if txs, refs := restored.idx.Retired(); txs != 6 || refs != 3 {
			t.Fatalf("cut %d: %d retired, %d late references; want 6 and 3", cut, txs, refs)
		}
		if nd := restored.idx.node(0); nd != (logical{deg: 5, outs: 2}) {
			t.Fatalf("cut %d: transaction 0 holds %+v", cut, nd)
		}
	}
}
