package core

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// churnStream is n transactions over five segments' worth of nodes, built
// to make segments compact: every eleventh declares no output count
// (never retired), the others one to three outputs. Each spends its
// predecessor and one to three earlier transactions, most from the last
// few hundred, a quarter from up to three segments back, so records are
// spent in the open segment, as it closes and long after, and some are
// named past their counts, before their segment compacts them away and
// after.
func churnStream(n int) (inputs func(u int) []txgraph.Node, outs []int) {
	rng := rand.New(rand.NewPCG(7, 11))
	outs = make([]int, n)
	ins := make([][]txgraph.Node, n)
	for u := range outs {
		if u%11 != 0 {
			outs[u] = 1 + u%3
		}
		if u == 0 {
			continue
		}
		in := []txgraph.Node{txgraph.Node(u - 1)}
		for range 1 + rng.IntN(3) {
			back := 1 + rng.IntN(300)
			if rng.IntN(4) == 0 {
				back = 1 + rng.IntN(3*segSize)
			}
			if v := txgraph.Node(u - back); v >= 0 && !slices.Contains(in, v) {
				in = append(in, v)
			}
		}
		ins[u] = in
	}
	return func(u int) []txgraph.Node { return ins[u] }, outs
}

// closedSpentBounded fails unless every closed segment holds no more spent
// records than compaction lets it.
func closedSpentBounded(t *testing.T, idx *T2SIndex, u int) {
	t.Helper()
	for s := range len(idx.segs) - 1 {
		sg := &idx.segs[s]
		if live := len(sg.recs) - int(sg.spent); int(sg.spent)<<compactShift > live {
			t.Fatalf("tx %d: closed segment %d keeps %d spent records beside %d live ones", u, s, sg.spent, live)
		}
	}
}

// TestCompactionMatchesAlg1: on churnStream, OptChain (exact vectors, no
// bound) decides as Alg. 1 as printed decides, transaction by transaction,
// while its segments compact: each as it closes, and older ones when their
// spent records pass their share. The retired transactions and late
// references it counts are the ones Alg. 1's out-degrees and output counts
// give, and a closed segment never keeps more spent records than the rule
// allows.
func TestCompactionMatchesAlg1(t *testing.T) {
	const k, eps = 8, 1e-9
	n := 5*segSize + 777
	inputs, outs := churnStream(n)
	a := &alg1{k: k, alpha: DefaultAlpha, w: DefaultWeight, eps: -1, outs: outs, counts: make([]int64, k)}
	p := NewOptChain(OptChainConfig{K: k, N: n, Truncate: -1})
	p.idx.SetOutCounts(func(v txgraph.Node) int { return outs[v] })
	atClose := make([]int, 0, 5) // records of each segment just after it closed
	for u := 0; u < n; u++ {
		fit, bound := a.prepare(inputs(u))
		want := alg1Select(fit, a.counts, bound)
		got := p.Place(txgraph.Node(u), inputs(u))
		if gap := fit[want] - fit[got]; got != want && !(gap > 0 && gap <= eps) {
			t.Fatalf("transaction %d placed in shard %d (fitness %g), Alg. 1 says %d (fitness %g)", u, got, fit[got], want, fit[want])
		}
		a.commit(got)
		if u&(segSize-1) == 0 && u > 0 {
			closed := &p.idx.segs[len(p.idx.segs)-2]
			if closed.spent != 0 || len(closed.recs) >= segSize || cap(closed.recs) >= segSize {
				t.Fatalf("tx %d: the segment it closed keeps %d records (room for %d), %d spent", u, len(closed.recs), cap(closed.recs), closed.spent)
			}
			atClose = append(atClose, len(closed.recs))
		}
		if u%1000 == 0 {
			closedSpentBounded(t, p.idx, u)
		}
	}
	var wantTxs, wantRefs int64
	for v, o := range outs {
		if d := a.deg[v]; o > 0 && d >= o {
			wantTxs, wantRefs = wantTxs+1, wantRefs+int64(d-o)
		}
	}
	txs, refs := p.idx.Retired()
	if txs != wantTxs || refs != wantRefs || refs == 0 {
		t.Fatalf("%d retired, %d late references; Alg. 1's degrees give %d and %d", txs, refs, wantTxs, wantRefs)
	}
	// Closed segments lost records to compactions after they closed.
	later := 0
	for s, at := range atClose {
		if len(p.idx.segs[s].recs) < at {
			later++
		}
	}
	if later < 2 {
		t.Fatalf("%d of %d closed segments compacted after they closed", later, len(atClose))
	}
	if p.idx.segs[len(p.idx.segs)-1].spent == 0 {
		t.Fatal("the open segment holds no spent record")
	}
	closedSpentBounded(t, p.idx, n)
}

// TestRestoreWithSpentRecords: snapshots of churnStream cut while the open
// segment and closed ones keep spent records restore to compacted indexes
// that continue exactly as the uninterrupted one: every decision, every
// count of retired transactions and late references, and, at the end,
// the same held state and section bytes.
func TestRestoreWithSpentRecords(t *testing.T) {
	const k = 8
	n := 5*segSize + 777
	inputs, outs := churnStream(n)
	mk := func() *OptChainPlacer {
		p := NewOptChain(OptChainConfig{K: k, N: n})
		p.idx.SetOutCounts(func(v txgraph.Node) int { return outs[v] })
		return p
	}
	whole := mk()
	u := 0
	for _, cut := range []int{2*segSize + 100, 4*segSize + 3000} {
		for ; u < cut; u++ {
			whole.Place(txgraph.Node(u), inputs(u))
		}
		closedSpent := 0
		for s := range len(whole.idx.segs) - 1 {
			closedSpent += int(whole.idx.segs[s].spent)
		}
		if closedSpent == 0 || whole.idx.segs[len(whole.idx.segs)-1].spent == 0 {
			t.Fatalf("cut %d: %d spent records in closed segments, %d in the open one", cut, closedSpent, whole.idx.segs[len(whole.idx.segs)-1].spent)
		}
		blob := stateOf(t, whole)
		restored := mk()
		if err := restored.RestoreState(placement.NewStateReader(blob)); err != nil {
			t.Fatal(err)
		}
		if restored.idx.spentRecords() != 0 || !bytes.Equal(stateOf(t, restored), blob) {
			t.Fatalf("cut %d: the restored index keeps %d spent records or writes other bytes than it read", cut, restored.idx.spentRecords())
		}
		ref := mk() // the uninterrupted index, placed from the start
		for v := 0; v < cut; v++ {
			ref.Place(txgraph.Node(v), inputs(v))
		}
		for v := cut; v < n; v++ {
			a, b := ref.Place(txgraph.Node(v), inputs(v)), restored.Place(txgraph.Node(v), inputs(v))
			at, ar := ref.idx.Retired()
			bt, br := restored.idx.Retired()
			if a != b || at != bt || ar != br {
				t.Fatalf("cut %d, tx %d: shard %d, %d retired, %d late references; uninterrupted %d, %d, %d", cut, v, b, bt, br, a, at, ar)
			}
		}
		sameLogical(t, restored.idx, ref.idx)
		if !bytes.Equal(stateOf(t, restored), stateOf(t, ref)) {
			t.Fatalf("cut %d: the sections differ at the end of the stream", cut)
		}
	}
}

// TestCompactionDropsLargeCounts: a transaction of 70,000 outputs keeps its
// count in bigOuts while its record stands. Every later transaction spends
// it and its predecessor, so its segment keeps only its record once
// closed; when the last output is spent the segment compacts, the record
// and the count go, and bigOuts is empty. A reference past the count is
// late, and a snapshot taken then restores an index that continues
// bit-identically.
func TestCompactionDropsLargeCounts(t *testing.T) {
	const k, wide = 4, 70_000
	n := wide + 4
	outs := func(v txgraph.Node) int {
		if v == 0 {
			return wide
		}
		return 1
	}
	inputs := func(u int) []txgraph.Node {
		switch u {
		case 0:
			return nil
		case 1:
			return []txgraph.Node{0}
		}
		return []txgraph.Node{0, txgraph.Node(u - 1)}
	}
	mk := func() *OptChainPlacer {
		p := NewOptChain(OptChainConfig{K: k, N: n})
		p.idx.SetOutCounts(outs)
		return p
	}
	whole := mk()
	for u := 0; u < wide; u++ {
		whole.Place(txgraph.Node(u), inputs(u))
	}
	if len(whole.idx.bigOuts) != 1 || len(whole.idx.segs[0].recs) != 1 || whole.idx.node(0).deg != wide-1 {
		t.Fatalf("before the last spend: large counts %v, segment 0 keeps %d records, transaction 0 %+v", whole.idx.bigOuts, len(whole.idx.segs[0].recs), whole.idx.node(0))
	}
	whole.Place(wide, inputs(wide))
	if len(whole.idx.bigOuts) != 0 || len(whole.idx.segs[0].recs) != 0 || whole.idx.record(0) != nil {
		t.Fatalf("after the last spend: large counts %v, segment 0 keeps %d records", whole.idx.bigOuts, len(whole.idx.segs[0].recs))
	}
	blob := stateOf(t, whole)
	restored := mk()
	if err := restored.RestoreState(placement.NewStateReader(blob)); err != nil {
		t.Fatal(err)
	}
	for u := wide + 1; u < n; u++ {
		a, b := whole.Place(txgraph.Node(u), inputs(u)), restored.Place(txgraph.Node(u), inputs(u))
		if a != b || !bytes.Equal(stateOf(t, restored), stateOf(t, whole)) {
			t.Fatalf("tx %d: shard %d against the uninterrupted %d, or the sections differ", u, b, a)
		}
	}
	// 0 and every transaction but the last were spent out.
	if txs, refs := restored.idx.Retired(); txs != wide+3 || refs != 3 {
		t.Fatalf("%d retired, %d late references: want %d and 3", txs, refs, wide+3)
	}
}
