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

// packed encodes the format-5 assignment section of the given decisions
// over k shards by hand: the decision count, then 64-bit little-endian
// words of decisions the fewest power-of-two bits wide that name k-1.
func packed(k int, shards []uint16) []byte {
	bits := 1
	for 1<<bits < k {
		bits *= 2
	}
	per := 64 / bits
	words := make([]uint64, (len(shards)+per-1)/per)
	for i, s := range shards {
		words[i/per] |= uint64(s) << (i % per * bits)
	}
	b := binary.AppendUvarint(nil, uint64(len(shards)))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// corruptSection builds a T2S state section over k <= 255 shards
// (assignment, held bitmap, no late references, then the held nodes'
// columns and the slab's) from raw parts, the output counts and
// out-degrees encoded count columns, for defect injection.
func corruptSection(k int, asnShards []uint16, bitmap []uint64, outs, degs []byte, lens, slabShards []uint16, slabVals []uint64) []byte {
	return corruptSectionRefs(0, k, asnShards, bitmap, outs, degs, lens, slabShards, slabVals)
}

// corruptSectionRefs is corruptSection with refs late references.
func corruptSectionRefs(refs uint64, k int, asnShards []uint16, bitmap []uint64, outs, degs []byte, lens, slabShards []uint16, slabVals []uint64) []byte {
	b := column(packed(k, asnShards), bitmap)
	b = binary.AppendUvarint(b, refs)
	b = append(b, outs...)
	b = append(b, degs...)
	b = column(b, lens)
	b = column(b, slabShards)
	return column(b, slabVals)
}

// TestCoreRestoreDefects: the restore refuses every defect a format-6
// section can carry, naming the node, entry or column.
func TestCoreRestoreDefects(t *testing.T) {
	const k, n = 3, 16                    // 2-bit decisions, so one of k can be planted
	one, held := []uint16{0}, []uint64{1} // one transaction, placed in shard 0 and held
	cases := map[string]struct {
		blob []byte
		want string
	}{
		"slab columns disagree": {
			blob: corruptSection(k, nil, nil, counts(), counts(), nil, []uint16{0}, nil),
			want: "slab columns disagree",
		},
		"assignment and index disagree": {
			blob: corruptSection(k, one, nil, counts(1), counts(), nil, nil, nil),
			want: "held bitmap of 0 words for 1 transactions",
		},
		"a bitmap word too many": {
			blob: corruptSection(k, one, []uint64{1, 0}, counts(0), counts(0), []uint16{0}, nil, nil),
			want: "held bitmap of 2 words for 1 transactions",
		},
		"bitmap padding": {
			blob: corruptSection(k, one, []uint64{1 | 1<<40}, counts(0), counts(0, 0), []uint16{0, 0}, nil, nil),
			want: "held bitmap marks node 40, past the 1 transactions",
		},
		"per-node columns disagree": {
			blob: corruptSection(k, one, held, counts(0), counts(), []uint16{0}, nil, nil),
			want: "0 out-degrees for 1 held transactions",
		},
		"more span lengths than held nodes": {
			blob: corruptSection(k, one, held, counts(0), counts(0), []uint16{0, 0}, nil, nil),
			want: "2 span lengths for 1 held transactions",
		},
		"slab shard out of range": {
			blob: corruptSection(k, one, held, counts(0), counts(0), []uint16{1}, []uint16{9}, []uint64{1}),
			want: "names shard 9",
		},
		"span longer than k": {
			blob: corruptSection(k, one, held, counts(0), counts(0), []uint16{k + 1}, []uint16{0, 1, 2, 0}, []uint64{1, 1, 1, 1}),
			want: "span 0 has 4 entries, more than the 3 shards",
		},
		"span exceeds slab": {
			blob: corruptSection(k, one, held, counts(0), counts(0), []uint16{3}, []uint16{0, 0}, []uint64{1, 1}),
			want: "span 0 (len 3 at offset 0) exceeds slab length 2",
		},
		"spans undercover slab": {
			blob: corruptSection(k, one, held, counts(0), counts(0), []uint16{1}, []uint16{0, 0}, []uint64{1, 1}),
			want: "cover 1 of 2",
		},
		"vector shards out of order": {
			blob: corruptSection(k, one, held, counts(0), counts(0), []uint16{2}, []uint16{1, 1}, []uint64{1, 1}),
			want: "slab entry 1 names shard 1 after shard 1 of the same vector",
		},
		"out-degree above MaxInt32": {
			blob: corruptSection(k, one, held, counts(0), counts(math.MaxInt32+1), []uint16{2}, []uint16{0, 1}, []uint64{1, 1}),
			want: "out-degree of node 0: 2147483648 exceeds 2147483647",
		},
		"negative out-degree": {
			// What a writer that cast a negative int64 to uint64 would emit.
			blob: corruptSection(k, one, held, counts(0), counts(math.MaxUint64), []uint16{2}, []uint16{0, 1}, []uint64{1, 1}),
			want: "out-degree of node 0: 18446744073709551615 exceeds 2147483647",
		},
		"truncated out-degree": {
			blob: corruptSection(k, []uint16{0, 0}, []uint64{3}, counts(0, 0), rawCounts(2, 5, 0x80), []uint16{0, 0}, nil, nil),
			want: "out-degree of node 1: truncated uvarint",
		},
		"out-degree over 10 bytes": {
			blob: corruptSection(k, one, held, counts(0), rawCounts(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), []uint16{0}, nil, nil),
			want: "out-degree of node 0: uvarint overflows 64 bits",
		},
		"out-degree overflows 64 bits": {
			blob: corruptSection(k, one, held, counts(0), rawCounts(1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02), []uint16{0}, nil, nil),
			want: "out-degree of node 0: uvarint overflows 64 bits",
		},
		"non-minimal out-degree": {
			blob: corruptSection(k, one, held, counts(0), rawCounts(1, 0x83, 0x00), []uint16{0}, nil, nil),
			want: "out-degree of node 0: non-minimal uvarint",
		},
		"more out-degrees than bytes": {
			blob: corruptSection(k, one, held, counts(0), rawCounts(2, 0), []uint16{0}, nil, nil),
			want: "count column of 2 values in 1 bytes",
		},
		"out-degree column longer than its values": {
			blob: corruptSection(k, one, held, counts(0), rawCounts(1, 0, 0), []uint16{0}, nil, nil),
			want: "out-degree column holds 1 bytes past its 1 values",
		},
		"output count above MaxInt32": {
			blob: corruptSection(k, []uint16{0, 0}, []uint64{3}, counts(3, 1<<40), counts(0, 0), []uint16{0, 0}, nil, nil),
			want: "output count of node 1: 1099511627776 exceeds 2147483647",
		},
		"truncated output count": {
			blob: corruptSection(k, one, held, rawCounts(1, 0xff), counts(0), []uint16{0}, nil, nil),
			want: "output count of node 0: truncated uvarint",
		},
		"non-minimal output count": {
			blob: corruptSection(k, one, held, rawCounts(1, 0x80, 0x80, 0x00), counts(0), []uint16{0}, nil, nil),
			want: "output count of node 0: non-minimal uvarint",
		},
		"output counts for another transaction count": {
			blob: corruptSection(k, one, held, counts(1, 1), counts(0), []uint16{0}, nil, nil),
			want: "2 output counts for 1 held transactions",
		},
		"output-count column longer than its values": {
			blob: corruptSection(k, one, held, rawCounts(1, 1, 7), counts(0), []uint16{0}, nil, nil),
			want: "output-count column holds 1 bytes past its 1 values",
		},
		"late references past an int64": {
			blob: corruptSectionRefs(1<<63, k, one, held, counts(0), counts(0), []uint16{0}, nil, nil),
			want: "9223372036854775808 late references",
		},
		"record of a node spent out exactly": {
			// 1 has had both its spenders and is still marked held: a writer
			// writes such a node's bit clear.
			blob: corruptSection(k, []uint16{0, 0}, []uint64{3}, counts(2, 2), counts(0, 2), []uint16{1, 0}, []uint16{0}, []uint64{5}),
			want: "node 1 has had 2 spenders of its 2 outputs but is held",
		},
		"span of a spent-out node": {
			// The same with the span a writer that retires never leaves.
			blob: corruptSection(k, []uint16{0, 0}, []uint64{3}, counts(2, 2), counts(0, 2), []uint16{1, 1}, []uint16{0, 2}, []uint64{5, 6}),
			want: "node 1 has had 2 spenders of its 2 outputs but is held",
		},
		"span of an overspent node": {
			// 1 has had three spenders of its two outputs and still carries a
			// vector: a writer that retires never leaves one.
			blob: corruptSection(k, []uint16{0, 0}, []uint64{3}, counts(2, 2), counts(0, 3), []uint16{1, 1}, []uint16{0, 2}, []uint64{5, 6}),
			want: "node 1 has had 3 spenders of its 2 outputs but is held",
		},
		"assignment shard out of range": {
			blob: corruptSection(k, []uint16{k}, nil, nil, nil, nil, nil, nil),
			want: "in shard 3 of 3",
		},
		"assignment padding": {
			// One decision, and the word's last two bits set.
			blob: binary.LittleEndian.AppendUint64(binary.AppendUvarint(nil, 1), 3<<62),
			want: "the assignment's last word sets bits past transaction 0",
		},
		"truncated": {
			blob: corruptSection(k, nil, nil, counts(), counts(), nil, nil, nil)[:2],
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
		// What an index that retires writes: four transactions in shard 0
		// declaring 1, 2, 0 (unknown) and 1 outputs. 0 has had three
		// spenders, so it is retired and its last two are counted as late
		// references; 3 was spent once, so it is retired too. 1 and 2 are
		// held.
		p := NewT2SPlacer(k, n, DefaultAlpha, 0.1)
		section := corruptSectionRefs(2, k, []uint16{0, 0, 0, 0}, []uint64{0b0110}, counts(2, 0), counts(1, 7), []uint16{1, 1}, []uint16{0, 0}, []uint64{5, 6})
		if err := p.RestoreState(placement.NewStateReader(section)); err != nil {
			t.Fatal(err)
		}
		if txs, refs := p.idx.Retired(); txs != 2 || refs != 2 || p.idx.live != 2 || p.idx.SlabLen() != 2 || freeSlots(p.idx) != 0 {
			t.Fatalf("%d retired, %d late references, %d held, %d entries, %d free slots: want 2, 2, 2, 2, 0",
				txs, refs, p.idx.live, p.idx.SlabLen(), freeSlots(p.idx))
		}
		if p.idx.record(0) != nil || p.idx.record(3) != nil || p.idx.node(2) != (logical{deg: 7, n: 1, off: 1}) {
			t.Fatalf("transactions 0 and 3 keep records %v and %v, 2 holds %+v", p.idx.record(0), p.idx.record(3), p.idx.node(2))
		}
		if !bytes.Equal(stateOf(t, p), section) {
			t.Fatal("the restored index writes other bytes than it read")
		}
	})

	t.Run("non-empty receiver", func(t *testing.T) {
		p := NewOptChain(OptChainConfig{K: k, N: n})
		p.Place(0, nil)
		err := p.RestoreState(placement.NewStateReader(corruptSection(k, nil, nil, counts(), counts(), nil, nil, nil)))
		if err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Fatalf("restore into placed-into placer: %v", err)
		}
	})
}

// TestShardWidthBoundary: over 255 shards a section stores slab shard ids
// and span lengths a byte each, over 256 two bytes each; at both a vector over
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
		// The assignment and the held bitmap: a count and one 8-byte word
		// each (8-bit decisions at both k); no late references; one 1-byte
		// output count and one 1-byte out-degree; one span length; k shard
		// ids and k values, each behind a 2-byte count.
		if want := 2*(1+8) + 1 + 2*3 + (1 + width) + (2 + width*int64(k)) + (2 + 8*int64(k)); int64(len(section)) != want {
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
// spenders leave it spent out (its record stays, spent, in the open
// segment), later ones name it anyway and take the record's out-degree
// past its count. Snapshots cut while it is spent out and after the first
// late reference restore to indexes that hold no record of it, count the
// same late references and retired transactions, decide the same and
// write the same section bytes as the uninterrupted index, transaction by
// transaction.
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
		if nd := whole.idx.record(0); nd == nil || nd.deg != int32(cut-1) || whole.idx.holds(0) {
			t.Fatalf("cut %d: transaction 0 holds %+v", cut, nd)
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
		if restored.idx.record(0) != nil || restored.idx.node(0) != (logical{}) {
			t.Fatalf("cut %d: the restored transaction 0 holds %+v", cut, restored.idx.record(0))
		}
	}
}
