package core

import (
	"testing"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// epochInputs is a synthetic chained stream: u spends u-1 and u/2, mixing
// dense chunk-local and long-range pre-epoch references.
func epochInputs(u int, buf []txgraph.Node) []txgraph.Node {
	if u == 0 {
		return buf
	}
	buf = append(buf, txgraph.Node(u-1))
	if h := u / 2; h != u-1 {
		buf = append(buf, txgraph.Node(h))
	}
	return buf
}

// epochTel builds shard-varying telemetry so the L2S term participates in
// every OptChain decision.
func epochTel(k int) StaticTelemetry {
	comm := make([]float64, k)
	verify := make([]float64, k)
	for j := 0; j < k; j++ {
		comm[j] = 4 + float64(j)
		verify[j] = 9 - 0.5*float64(j)
	}
	return StaticTelemetry{Comm: comm, Verify: verify}
}

func serialCoreDecisions(p placement.Placer, n int) []int {
	out := make([]int, n)
	var buf []txgraph.Node
	for u := 0; u < n; u++ {
		buf = epochInputs(u, buf[:0])
		out[u] = p.Place(txgraph.Node(u), buf)
	}
	return out
}

// With one worker the cross-chunk window is empty, so epoch placement must
// be bit-identical to serial Place for both T2S and full OptChain — same
// decisions AND identical post-epoch score state (checked through Vector) —
// with the spenders-so-far divisor and with declared output counts. Three
// outputs are what the chained stream spends of a transaction at most, so
// the serial index retires a transaction at its third spender and the
// epochs at the join that follows it: the same transactions, in the end.
func TestEpochOneWorkerBitIdenticalToSerial(t *testing.T) {
	const n, k = 700, 8
	type mk struct {
		name string
		make func() placement.Sharder
		idx  func(placement.Sharder) *T2SIndex
	}
	three := func(txgraph.Node) int { return 3 }
	t2s := func(outs func(txgraph.Node) int) func() placement.Sharder {
		return func() placement.Sharder {
			p := NewT2SPlacer(k, n, 0.5, 0.1)
			p.Scores().SetOutCounts(outs)
			return p
		}
	}
	optChain := func(outs func(txgraph.Node) int) func() placement.Sharder {
		return func() placement.Sharder {
			p := NewOptChain(OptChainConfig{K: k, N: n, Latency: FastL2S{Tel: epochTel(k)}})
			p.Scores().SetOutCounts(outs)
			return p
		}
	}
	t2sIdx := func(s placement.Sharder) *T2SIndex { return s.(*T2SPlacer).Scores() }
	optIdx := func(s placement.Sharder) *T2SIndex { return s.(*OptChainPlacer).Scores() }
	cases := []mk{
		{"T2S", t2s(nil), t2sIdx}, {"OptChain", optChain(nil), optIdx},
		{"T2S/outputs", t2s(three), t2sIdx}, {"OptChain/outputs", optChain(three), optIdx},
	}
	for _, c := range cases {
		serial := c.make()
		want := serialCoreDecisions(serial.(placement.Placer), n)

		par := c.make()
		fan := placement.NewFan(1)
		stats := fan.PlaceAll(par, n, 97, epochInputs) // uneven epochs cross boundaries
		if stats.CrossChunkRefs != 0 {
			t.Fatalf("%s: one worker reported %d cross-chunk refs", c.name, stats.CrossChunkRefs)
		}
		asn := par.Assignment()
		for u := 0; u < n; u++ {
			if got := asn.ShardOf(txgraph.Node(u)); got != want[u] {
				t.Fatalf("%s: decision %d differs: epoch=%d serial=%d", c.name, u, got, want[u])
			}
		}
		// The joined score state must match the serial index exactly: same
		// sparse vectors, same out-degrees (the inputs of a hypothetical next
		// transaction would then score identically).
		si, pi := c.idx(serial), c.idx(par)
		for u := 0; u < n; u++ {
			v := txgraph.Node(u)
			if si.OutDegree(v) != pi.OutDegree(v) {
				t.Fatalf("%s: out-degree of %d differs: serial=%d epoch=%d", c.name, u, si.OutDegree(v), pi.OutDegree(v))
			}
			ss, sv := si.vec(v)
			ps, pv := pi.vec(v)
			if len(ss) != len(ps) {
				t.Fatalf("%s: vector %d support differs: %d vs %d", c.name, u, len(ss), len(ps))
			}
			for i := range ss {
				if ss[i] != ps[i] || sv[i] != pv[i] {
					t.Fatalf("%s: vector %d entry %d differs: (%d,%d) vs (%d,%d)",
						c.name, u, i, ss[i], sv[i], ps[i], pv[i])
				}
			}
		}
		st, sr := si.Retired()
		pt, pr := pi.Retired()
		if st != pt || sr != 0 || pr != 0 || (st == 0) != (c.name == "T2S" || c.name == "OptChain") {
			t.Fatalf("%s: serial retired %d (%d late references), epochs %d (%d)", c.name, st, sr, pt, pr)
		}
	}
}

// Multi-worker epochs are deterministic: identical inputs and worker count
// reproduce identical decisions and identical drift accounting, run to run.
func TestEpochParallelDeterministic(t *testing.T) {
	const n, k, workers = 900, 8, 4
	run := func() ([]int, placement.EpochStats) {
		p := NewOptChain(OptChainConfig{K: k, N: n, Latency: FastL2S{Tel: epochTel(k)}})
		stats := placement.NewFan(workers).PlaceAll(p, n, 225, epochInputs)
		out := make([]int, n)
		asn := p.Assignment()
		for u := range out {
			out[u] = asn.ShardOf(txgraph.Node(u))
		}
		return out, stats
	}
	d1, s1 := run()
	d2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ between identical runs: %+v vs %+v", s1, s2)
	}
	for u := range d1 {
		if d1[u] != d2[u] {
			t.Fatalf("decision %d differs between identical runs: %d vs %d", u, d1[u], d2[u])
		}
	}
	// The chained stream guarantees cross-chunk references at 4 workers;
	// they must be counted, not silently dropped.
	if s1.CrossChunkRefs == 0 {
		t.Fatal("no cross-chunk refs counted on a chained stream across 4 workers")
	}
	if s1.CrossChunkRefs > s1.InputRefs {
		t.Fatalf("cross-chunk refs %d exceed total refs %d", s1.CrossChunkRefs, s1.InputRefs)
	}
}

// An epoch must leave the index ready for serial Place calls and vice versa:
// mixed serial/epoch streams keep the Assignment and degree bookkeeping
// consistent.
func TestEpochInterleavesWithSerialPlace(t *testing.T) {
	const n, k = 300, 4
	p := NewT2SPlacer(k, n, 0.5, 0.1)
	p.Scores().SetOutCounts(func(txgraph.Node) int { return 2 })
	fan := placement.NewFan(2)
	var buf []txgraph.Node

	serialSpan := func(lo, hi int) {
		for u := lo; u < hi; u++ {
			buf = epochInputs(u, buf[:0])
			p.Place(txgraph.Node(u), buf)
		}
	}
	serialSpan(0, 50)
	fan.PlaceAll(p, 100, 50, epochInputs)
	serialSpan(150, 200)
	fan.PlaceEpoch(p, 100, epochInputs)

	asn := p.Assignment()
	if asn.Len() != n {
		t.Fatalf("placed %d, want %d", asn.Len(), n)
	}
	var total int64
	for j := 0; j < k; j++ {
		total += asn.Count(j)
	}
	if total != n {
		t.Fatalf("shard counts sum to %d, want %d", total, n)
	}
	// Every transaction with spenders has a positive recorded out-degree,
	// and the retirement counters are what the degrees say they are however
	// the spenders arrived: the stream spends three outputs of most
	// transactions and each declared two.
	idx := p.Scores()
	var txs, refs int64
	for u := 0; u+1 < n; u++ {
		d := idx.OutDegree(txgraph.Node(u))
		if d <= 0 {
			t.Fatalf("out-degree of %d is %d after mixed stream", u, d)
		}
		if d >= 2 {
			txs++
			refs += int64(d - 2)
			if len(idx.Vector(txgraph.Node(u))) != 0 {
				t.Fatalf("transaction %d has %d spenders of 2 outputs and still a vector", u, d)
			}
		}
	}
	if gt, gr := idx.Retired(); gt != txs || gr != refs || refs == 0 {
		t.Fatalf("retired %d, late references %d; the degrees say %d and %d", gt, gr, txs, refs)
	}
}
