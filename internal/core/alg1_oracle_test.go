package core

import (
	"math"
	"testing"

	"optchain/internal/txgraph"
)

// alg1 is Alg. 1 of the paper as printed, in float64 and dense: every
// transaction keeps its whole k-vector p'(v), nothing is truncated or
// forgotten. For a new transaction u (lines 2-3)
//
//	p'(u) = (1−α) Σ_{v∈Nin(u)} p'(v)/|Nout(v)|,   p(u)[j] = p'(u)[j]/|Sj|
//
// with |Nout(v)| the output count of v (the spenders so far when it is
// unknown; a reference past the last output carries nothing), p(u)[j] = 0
// for an empty shard, and the raw p'(u)[j] for a placer that does not
// normalise. u goes to the argmax of the fitness p(u)[j] − w·E(j) over the
// shards below the bound (lines 4-9, alg1Select), and placing it at s adds α
// to p'(u)[s] (line 10). E(j) is the two-phase latency with its lock round,
// as printed (see Telemetry):
//
//	E(j) = max_{i∈Sin} mean(i) + mean(j),   mean(i) = 1/λc_i + 1/λv_i
//
// and 0 without telemetry. The placer drops the lock round, which is the
// same for every j; the oracle keeps it, so that every step shows dropping
// it is exact.
type alg1 struct {
	k         int
	alpha, w  float64
	normalize bool
	eps       float64   // capacity tolerance ε; negative: no bound
	hint      int       // expected stream length n
	tel       Telemetry // nil: E(j) = 0
	outs      []int

	vecs   [][]float64
	deg    []int
	shard  []int
	counts []int64
	p      []float64 // p'(u) of the prepared transaction
}

// prepare computes p'(u) and returns the fitness of every shard and the
// bound: (1+ε)·n/k, n the larger of the hint and the placed transactions
// plus one.
func (a *alg1) prepare(inputs []txgraph.Node) (fit []float64, bound int64) {
	a.p = make([]float64, a.k)
	var lock float64 // the lock round: the slowest input shard
	for _, v := range inputs {
		if a.tel != nil {
			lock = max(lock, shardMean(a.tel, a.shard[v]))
		}
		a.deg[v]++
		div := a.outs[v]
		if div == 0 {
			div = a.deg[v]
		} else if a.deg[v] > div {
			continue
		}
		for j, x := range a.vecs[v] {
			a.p[j] += x / float64(div)
		}
		if a.deg[v] == a.outs[v] {
			a.vecs[v] = nil // no later input can name v
		}
	}
	fit = make([]float64, a.k)
	for j := range fit {
		a.p[j] *= 1 - a.alpha
		fit[j] = a.p[j]
		if a.normalize {
			fit[j] = 0
			if a.counts[j] > 0 {
				fit[j] = a.p[j] / float64(a.counts[j])
			}
		}
		if a.tel != nil {
			fit[j] -= a.w * (lock + shardMean(a.tel, j))
		}
	}
	bound = math.MaxInt64
	if a.eps >= 0 {
		n := max(a.hint, len(a.vecs)+1)
		bound = max(int64(float64(n)/float64(a.k)*(1+a.eps)), 1)
	}
	return fit, bound
}

func (a *alg1) commit(s int) {
	a.p[s] += a.alpha
	a.vecs = append(a.vecs, a.p)
	a.deg = append(a.deg, 0)
	a.shard = append(a.shard, s)
	a.counts[s]++
}

// alg1Select is line 9 with the bound: the shard below bound of highest
// fitness, ties to the one holding fewer transactions, then to the lower
// shard; the least-loaded shard (the lowest among equals) when none is
// below bound.
func alg1Select(fit []float64, counts []int64, bound int64) int {
	best := -1
	for j, c := range counts {
		if c < bound && (best < 0 || fit[j] > fit[best] || fit[j] == fit[best] && c < counts[best]) {
			best = j
		}
	}
	if best < 0 {
		best = 0
		for j, c := range counts {
			if c < counts[best] {
				best = j
			}
		}
	}
	return best
}

// loadTelemetry is telemetry with load feedback: shard j verifies at
// λv(j) = 1/(0.5 + counts[j]/100), so its mean grows by a second for every
// hundred transactions placed in it. counts is the oracle's tally, which is
// the placer's too, because the oracle commits the kernel's decision every
// step; both read it before that step's commit. Static telemetry fills the
// fastest shards whatever the weight of E(j); this one makes the weight
// decide where the placer trades locality for load.
type loadTelemetry struct{ counts []int64 }

func (l loadTelemetry) CommRate(int) float64 { return 2 }

func (l loadTelemetry) VerifyRate(j int) float64 { return 1 / (0.5 + float64(l.counts[j])/100) }

// TestAlg1OracleOnStreams holds both placers (OptChain: raw scores, no
// bound; T2S: normalised, capped) to alg1 on the benchmark's stream shapes
// at k=16, with a covering hint and with none, and OptChain twice more with
// an E(j) that depends on j (the dense select): static rates, and rates
// that fall as a shard fills. The oracle commits the kernel's decision
// every step, so a divergence does not compound. A step where they differ
// is allowed only when the kernel's shard is below the bound and the
// oracle ranks it below its own choice by a positive fitness gap of at
// most eps: a Q32.32-vs-float64 near-tie. An exact float64 tie must be
// broken as the tie rules say.
func TestAlg1OracleOnStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("24 placement passes of 50k transactions")
	}
	const k, txs, eps = 16, 50_000, 1e-9 // eps: about four Q32.32 quanta
	tel := StaticTelemetry{Comm: make([]float64, k), Verify: make([]float64, k)}
	for j := range tel.Comm {
		tel.Comm[j], tel.Verify[j] = 2, 0.5+0.1*float64(j%5)
	}
	optChain := func(n int, tel Telemetry) *OptChainPlacer {
		return NewOptChain(OptChainConfig{K: k, N: n, Truncate: -1, Telemetry: tel})
	}
	for _, w := range benchmarkStreams {
		nodes, offs, outs := streamInputs(t, w.spec, txs)
		for _, c := range []struct {
			name      string
			normalize bool
			eps       float64
			tel       func(counts []int64) Telemetry
			build     func(n int, tel Telemetry) *OptChainPlacer
		}{
			{"OptChain", false, -1, nil, optChain},
			{"OptChain/L2S", false, -1, func([]int64) Telemetry { return tel }, optChain},
			{"OptChain/L2S-load", false, -1, func(counts []int64) Telemetry { return loadTelemetry{counts} }, optChain},
			{"T2S", true, 0.1, nil, func(n int, _ Telemetry) *OptChainPlacer {
				p := NewT2SPlacer(k, n, DefaultAlpha, 0.1)
				p.idx.truncate, p.idx.truncQ = 0, 0
				return p
			}},
		} {
			for _, hint := range []int{txs, 0} {
				a := &alg1{k: k, alpha: DefaultAlpha, w: DefaultWeight, normalize: c.normalize,
					eps: c.eps, hint: hint, outs: outs, counts: make([]int64, k)}
				if c.tel != nil {
					a.tel = c.tel(a.counts)
				}
				p := c.build(hint, a.tel)
				p.idx.SetOutCounts(func(v txgraph.Node) int { return outs[v] })
				near, widest := 0, 0.0
				for u := 0; u < txs; u++ {
					in := nodes[offs[u]:offs[u+1]]
					fit, bound := a.prepare(in)
					want := alg1Select(fit, a.counts, bound)
					got := p.Place(txgraph.Node(u), in)
					if gap := fit[want] - fit[got]; got != want {
						if a.counts[got] >= bound || !(gap > 0 && gap <= eps) {
							t.Fatalf("%s %s N=%d: transaction %d placed in shard %d (fitness %g, %d txs), Alg. 1 says %d (fitness %g, %d txs), bound %d",
								w.name, c.name, hint, u, got, fit[got], a.counts[got], want, fit[want], a.counts[want], bound)
						}
						near, widest = near+1, max(widest, gap)
					}
					a.commit(got)
				}
				t.Logf("%s %s N=%d: %d near-ties in %d steps, widest gap %.3g", w.name, c.name, hint, near, txs, widest)
			}
		}
	}
}
