package core

import (
	"math"
	"math/rand"
	"testing"

	"optchain/internal/dataset"
	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// referenceT2S is an independent, dense re-implementation of the paper's
// incremental rule used to validate T2SIndex: it stores full k-vectors and
// applies p'(u) = (1−α)Σ p'(v)/|Nout(v)|, p'(u)[s] += α on placement, with
// |Nout(v)| the output count when outs knows it and the spenders so far
// otherwise. It never forgets a vector.
type referenceT2S struct {
	alpha  float64
	k      int
	outs   func(txgraph.Node) int // nil: always the spenders-so-far divisor
	vecs   [][]float64
	outDeg []int
}

func (r *referenceT2S) place(inputs []txgraph.Node, counts []int64) (scores []float64, commit func(s int)) {
	p := make([]float64, r.k)
	for _, v := range inputs {
		r.outDeg[v]++
		div := r.outDeg[v]
		if r.outs != nil && r.outs(v) > 0 {
			div = r.outs(v)
		}
		for i := 0; i < r.k; i++ {
			p[i] += r.vecs[v][i] / float64(div)
		}
	}
	for i := range p {
		p[i] *= 1 - r.alpha
	}
	scores = make([]float64, r.k)
	for i := range scores {
		if counts[i] > 0 {
			scores[i] = p[i] / float64(counts[i])
		}
	}
	return scores, func(s int) {
		p[s] += r.alpha
		r.vecs = append(r.vecs, p)
		r.outDeg = append(r.outDeg, 0)
	}
}

// TestT2SIndexMatchesDenseReference: on valid UTXO streams the index, which
// drops p'(v) the moment the last output of v is spent, scores every
// transaction as the reference that keeps everything does, and every vector
// it dropped belongs to a transaction no later input names. So forgetting
// is exact, not approximate.
func TestT2SIndexMatchesDenseReference(t *testing.T) {
	const n = 4000
	for _, tc := range []struct {
		name   string
		k      int
		counts bool
	}{{"k=5 spenders so far", 5, false}, {"k=5 output counts", 5, true}, {"k=16 output counts", 16, true}} {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.k
			cfg := dataset.DefaultConfig()
			cfg.N = n
			cfg.Seed = 21
			d, err := dataset.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			asn := placement.NewAssignment(k, n)
			idx := NewT2SIndex(0.5, 0 /* exact */, asn, n)
			ref := &referenceT2S{alpha: 0.5, k: k}
			if tc.counts {
				ref.outs = func(v txgraph.Node) int { return d.NumOutputs(int(v)) }
				idx.SetOutCounts(ref.outs)
			}
			rng := rand.New(rand.NewSource(3))
			retired := make([]bool, n)

			var buf []txgraph.Node
			for i := 0; i < n; i++ {
				buf = d.InputTxNodes(i, buf)
				for _, v := range buf {
					if retired[v] {
						t.Fatalf("tx %d names %d, whose vector was dropped", i, v)
					}
				}
				got := idx.Prepare(txgraph.Node(i), buf)
				want, commit := ref.place(buf, asn.Counts())
				for j := 0; j < k; j++ {
					// The index carries score mass in Q32.32 fixed point (quantum
					// 2^-32 ≈ 2.3e-10, see fixed.go); the dense float64 reference
					// does not, so agreement is bounded by accumulated quantization,
					// not machine epsilon. The (1−α)/|Nout| damping keeps the
					// accumulated error orders of magnitude below this tolerance.
					if math.Abs(got[j]-want[j]) > 1e-6*(1+math.Abs(want[j])) {
						t.Fatalf("tx %d shard %d: incremental %g, reference %g", i, j, got[j], want[j])
					}
				}
				for _, v := range buf {
					if shards, _ := idx.vec(v); len(shards) == 0 {
						retired[v] = true
					}
				}
				s := rng.Intn(k) // arbitrary placements exercise all code paths
				idx.Commit(txgraph.Node(i), s)
				asn.Place(txgraph.Node(i), s)
				commit(s)
			}
			dropped := 0
			for _, r := range retired {
				if r {
					dropped++
				}
			}
			txs, refs := idx.Retired()
			if int(txs) != dropped || refs != 0 {
				t.Fatalf("index counts %d retired and %d late references; %d vectors are gone", txs, refs, dropped)
			}
			if tc.counts && dropped < n/2 || !tc.counts && dropped != 0 {
				t.Fatalf("%d of %d vectors dropped (output counts known: %v)", dropped, n, tc.counts)
			}
		})
	}
}

func TestT2SPrepareCommitContract(t *testing.T) {
	asn := placement.NewAssignment(2, 4)
	idx := NewT2SIndex(0.5, 0, asn, 4)
	mustPanic(t, func() { idx.Commit(0, 0) }) // commit before prepare
	idx.Prepare(0, nil)
	mustPanic(t, func() { idx.Prepare(1, nil) }) // double prepare
	idx.Commit(0, 0)
	asn.Place(0, 0)
	mustPanic(t, func() { idx.Prepare(5, nil) }) // out of order
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestT2SScoresFollowPlacedInputs(t *testing.T) {
	const k = 4
	asn := placement.NewAssignment(k, 16)
	idx := NewT2SIndex(0.5, 0, asn, 16)
	// Place two coinbases in shards 1 and 2.
	for u, s := range map[txgraph.Node]int{} {
		_ = u
		_ = s
	}
	idx.Prepare(0, nil)
	idx.Commit(0, 1)
	asn.Place(0, 1)
	idx.Prepare(1, nil)
	idx.Commit(1, 2)
	asn.Place(1, 2)
	// A tx spending only node 0 must score shard 1 strictly highest.
	scores := idx.Prepare(2, []txgraph.Node{0})
	best := 0
	for j := 1; j < k; j++ {
		if scores[j] > scores[best] {
			best = j
		}
	}
	if best != 1 {
		t.Fatalf("scores = %v, best = %d, want shard 1", scores, best)
	}
	if scores[1] <= 0 {
		t.Fatalf("score for input shard is %g, want > 0", scores[1])
	}
	idx.Commit(2, 1)
	asn.Place(2, 1)
	// Out-degree of node 0 must now be 1 (one spender).
	if idx.outDegree(0) != 1 {
		t.Fatalf("OutDegree(0) = %d", idx.outDegree(0))
	}
}

func TestT2SCoinbaseHasEmptyScores(t *testing.T) {
	asn := placement.NewAssignment(3, 4)
	idx := NewT2SIndex(0.5, 0, asn, 4)
	scores := idx.Prepare(0, nil)
	for j, s := range scores {
		if s != 0 {
			t.Fatalf("coinbase score[%d] = %g", j, s)
		}
	}
	idx.Commit(0, 0)
	asn.Place(0, 0)
	if v := idx.vector(0); v[0] != 0.5 || len(v) != 1 {
		t.Fatalf("p'(coinbase) = %v, want {0: 0.5}", v)
	}
}

// Truncation must not meaningfully perturb the scores that drive
// placement. Comparing two closed-loop placers would diverge chaotically
// (one flipped tie reroutes all subsequent state), so both indexes replay
// the SAME exact-placer assignment and we compare their score argmaxes.
func TestTruncationBarelyChangesDecisions(t *testing.T) {
	const k, n = 8, 6000
	cfg := dataset.DefaultConfig()
	cfg.N = n
	cfg.Seed = 5
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewT2SPlacer(k, n, 0.5, 0.1)
	exact.idx.truncate = 0
	asnT := placement.NewAssignment(k, n)
	truncIdx := NewT2SIndex(0.5, DefaultTruncate, asnT, n)

	var buf []txgraph.Node
	same := 0
	for i := 0; i < n; i++ {
		buf = d.InputTxNodes(i, buf)
		exactScores := exact.idx.Prepare(txgraph.Node(i), buf)
		truncScores := truncIdx.Prepare(txgraph.Node(i), buf)
		if argmax(exactScores) == argmax(truncScores) {
			same++
		}
		// Drive both with the exact argmax so state stays comparable.
		s := argmax(exactScores)
		exact.idx.Commit(txgraph.Node(i), s)
		exact.Assignment().Place(txgraph.Node(i), s)
		truncIdx.Commit(txgraph.Node(i), s)
		asnT.Place(txgraph.Node(i), s)
	}
	if frac := float64(same) / float64(n); frac < 0.999 {
		t.Fatalf("truncation changed %.2f%% of score argmaxes", 100*(1-frac))
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// The headline §IV-B shape (Table I): on a Bitcoin-like stream, cross-TX
// fraction must be ordered T2S < Greedy < Random, with T2S far below
// Random. The T2S-vs-Greedy gap compounds with stream length (Greedy's
// tie-broken placements progressively fragment wallet lineages), so the
// test uses a long enough stream for the separation to establish.
func TestTableIOrderingShape(t *testing.T) {
	const k, n = 16, 60000
	cfg := dataset.DefaultConfig()
	cfg.N = n
	cfg.Seed = 1
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := func(p placement.Placer) float64 {
		cc := placement.CrossCounter{}
		var buf []txgraph.Node
		for i := 0; i < n; i++ {
			buf = d.InputTxNodes(i, buf)
			s := p.Place(txgraph.Node(i), buf)
			cc.Observe(p.Assignment(), buf, s)
		}
		return cc.Fraction()
	}
	t2sPlacer := NewT2SPlacer(k, n, 0.5, 0.1)
	t2sPlacer.Scores().SetOutCounts(func(v txgraph.Node) int { return d.NumOutputs(int(v)) })
	t2s := frac(t2sPlacer)
	greedy := frac(placement.NewGreedy(k, n, 0.1))
	random := frac(placement.NewRandom(k, n))

	t.Logf("cross-TX: T2S=%.3f Greedy=%.3f Random=%.3f", t2s, greedy, random)
	if !(t2s < greedy && greedy < random) {
		t.Fatalf("ordering violated: T2S=%.3f Greedy=%.3f Random=%.3f", t2s, greedy, random)
	}
	if random < 0.85 {
		t.Fatalf("random cross fraction %.3f implausibly low for k=16", random)
	}
	if t2s > 0.85*greedy {
		t.Fatalf("T2S=%.3f not clearly below Greedy=%.3f", t2s, greedy)
	}
	if t2s > 0.3*random {
		t.Fatalf("T2S=%.3f not far below Random=%.3f", t2s, random)
	}
}

func TestT2SPlacerRespectsCapacity(t *testing.T) {
	const k, n = 4, 400
	p := NewT2SPlacer(k, n, 0.5, 0.1)
	// Chain: everything related to node 0; capacity must force spread.
	p.Place(0, nil)
	for u := txgraph.Node(1); u < n; u++ {
		p.Place(u, []txgraph.Node{u - 1})
	}
	capLimit := int64(float64(n/k)*11/10) + 1
	for s := 0; s < k; s++ {
		if c := p.Assignment().Count(s); c > capLimit {
			t.Fatalf("shard %d has %d > cap %d", s, c, capLimit)
		}
	}
}

func TestOptChainZeroLatencyFollowsT2S(t *testing.T) {
	const k = 4
	oc := NewOptChain(OptChainConfig{K: k, N: 16})
	oc.Place(0, nil)
	s0 := oc.Assignment().ShardOf(0)
	s := oc.Place(1, []txgraph.Node{0})
	if s != s0 {
		t.Fatalf("spender placed in %d, input in %d", s, s0)
	}
}

func TestOptChainLatencyAversion(t *testing.T) {
	const k = 3
	// Shard 0 is catastrophically slow; others fast.
	tel := StaticTelemetry{
		Comm:   []float64{10, 10, 10},
		Verify: []float64{0.001, 10, 10},
	}
	oc := NewOptChain(OptChainConfig{
		K: k, N: 100, Telemetry: tel,
	})
	// Seed a tx in shard 0 by hand to give T2S a pull toward it.
	oc.idx.Prepare(0, nil)
	oc.idx.Commit(0, 0)
	oc.Assignment().Place(0, 0)
	// A spender of tx 0: T2S says shard 0. Its lock round waits on shard
	// 0's 1000 s verification wherever it commits, but committing there
	// waits on it twice: the commit-round penalty (0.01·1000 = 10) dwarfs
	// any T2S score (≤1).
	s := oc.Place(1, []txgraph.Node{0})
	if s == 0 {
		t.Fatal("OptChain placed into the slow shard despite L2S")
	}
}

func TestOptChainBalancesUnrelatedStreams(t *testing.T) {
	// All-coinbase stream with uniform telemetry must spread across shards
	// (every fitness ties at −w·E; least-loaded tie-break balances).
	const k, n = 4, 400
	tel := StaticTelemetry{
		Comm:   []float64{10, 10, 10, 10},
		Verify: []float64{1, 1, 1, 1},
	}
	oc := NewOptChain(OptChainConfig{K: k, N: n, Telemetry: tel})
	for u := txgraph.Node(0); u < n; u++ {
		oc.Place(u, nil)
	}
	for s := 0; s < k; s++ {
		if c := oc.Assignment().Count(s); c != n/k {
			t.Fatalf("shard %d has %d, want exactly %d", s, c, n/k)
		}
	}
}

// TestShardMeanDegenerateRates: shardMean is the commit-round mean
// 1/λc + 1/λv, larger for a slower shard, and 0 for a shard whose rates are
// not positive.
func TestShardMeanDegenerateRates(t *testing.T) {
	tel := StaticTelemetry{
		Comm:   []float64{10, 10, 0, 10, -1},
		Verify: []float64{2, 0.25, 1, 0, 1},
	}
	for s, want := range []float64{0.1 + 0.5, 0.1 + 4, 0, 0, 0} {
		if got := shardMean(tel, s); got != want {
			t.Errorf("shard %d: shardMean = %g, want %g", s, got, want)
		}
	}
}

func TestOptChainNameAndScores(t *testing.T) {
	oc := NewOptChain(OptChainConfig{K: 2, N: 4})
	if oc.Name() != "OptChain" {
		t.Fatal("name")
	}
	if oc.Scores() == nil {
		t.Fatal("scores accessor")
	}
	p := NewT2SPlacer(2, 4, 0.5, 0.1)
	if p.Name() != "T2S" {
		t.Fatal("t2s name")
	}
}
