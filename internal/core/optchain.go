package core

import (
	"math"

	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// Default parameter values from the paper.
const (
	// DefaultAlpha is the PageRank damping factor (§IV-B experiment setup).
	DefaultAlpha = 0.5
	// DefaultWeight is the L2S coefficient in the Temporal Fitness score
	// p(u)[j] − 0.01·E(j) (Alg. 1 line 9).
	DefaultWeight = 0.01
	// DefaultCapacityEps is the (1+ε) balance bound used by the offline
	// T2S-based and Greedy comparisons (§IV-B: ε = 0.1).
	DefaultCapacityEps = 0.1
	// DefaultTruncate bounds p' vector support with no measurable effect on
	// placement decisions (see TestTruncationBarelyChangesDecisions).
	DefaultTruncate = 1e-4
)

// OptChainPlacer is the placement rule of the paper, Alg. 1: Temporal
// Fitness placement combining the T2S score with the L2S latency estimate,
// su = argmax_j p(u)[j] − w·E(j). The paper's T2S-based placer (§IV-B) is
// the same rule with E(j) ≡ 0, normalised scores and a capacity bound
// (NewT2SPlacer); it is the only placer type in this package.
type OptChainPlacer struct {
	idx    *T2SIndex
	tel    Telemetry // nil: E(j) ≡ 0, and Place decides over the support of p'(u)
	weight float64
	name   string

	// cap, when set, bounds every shard at cap.Bound (the T2S-based placer);
	// without it no shard is ever full.
	cap *placement.Capacity
}

// OptChainConfig parameterizes NewOptChain. Zero fields take the paper's
// defaults.
//
// The placer scores with the raw p'(u)[j], not p'(u)[j]/|Sj| as the paper's
// formula writes: with a fixed weight the normalised score decays as shards
// grow (∝1/|Sj|) while E(j) stays in seconds, so the fitness would
// degenerate to pure load balancing over time. The raw p' keeps the two
// terms on comparable scales; the L2S term carries the balancing duty.
type OptChainConfig struct {
	K     int // number of shards (required)
	N     int // expected stream length (capacity hint only)
	Alpha float64
	// Weight is the L2S coefficient (paper: 0.01); it must be finite.
	Weight float64
	// Truncate is the relative sparse-vector truncation threshold
	// (0 < x < 1); negative means exact (no truncation).
	Truncate float64
	// Telemetry supplies the shard rates E(j) is read from: the
	// commit-round mean 1/λc_j + 1/λv_j (see Telemetry). Nil means no
	// telemetry: E(j) is the same for every shard, so the L2S term cannot
	// change the argmax and the placer decides over the support of p'(u)
	// alone.
	Telemetry Telemetry
}

// NewOptChain builds the full placer.
func NewOptChain(cfg OptChainConfig) *OptChainPlacer {
	if cfg.Alpha == 0 {
		cfg.Alpha = DefaultAlpha
	}
	if cfg.Weight == 0 {
		cfg.Weight = DefaultWeight
	}
	switch {
	case cfg.Truncate == 0:
		cfg.Truncate = DefaultTruncate
	case cfg.Truncate < 0:
		cfg.Truncate = 0
	}
	asn := placement.NewAssignment(cfg.K, cfg.N)
	idx := NewT2SIndex(cfg.Alpha, cfg.Truncate, asn, cfg.N)
	idx.SetNormalize(false)
	return &OptChainPlacer{
		idx:    idx,
		tel:    cfg.Telemetry,
		weight: cfg.Weight,
		name:   "OptChain",
	}
}

// NewT2SPlacer creates the paper's "T2S-based" placer (§IV-B, Tables I-II)
// over k shards for an expected stream of n transactions: Alg. 1 with
// E(j) ≡ 0 and scores p(u)[j] = p'(u)[j]/|Sj|, where a shard holding the
// (1+eps)·n/k bound takes no more transactions (placement.Capacity, as for
// Greedy). A transaction with no eligible scored shard (every coinbase
// transaction, whose score vector is empty) goes to the least-loaded one.
func NewT2SPlacer(k, n int, alpha, eps float64) *OptChainPlacer {
	p := NewOptChain(OptChainConfig{K: k, N: n, Alpha: alpha})
	p.idx.SetNormalize(true)
	p.name = "T2S"
	c := placement.NewCapacity(n, k, eps)
	p.cap = &c
	return p
}

// outranks is the order in which every select of this package ranks
// candidate shard j against the incumbent: the higher score (fitness)
// first, then the shard that holds fewer transactions. Both loops visit
// candidates by ascending shard and replace the incumbent only with one
// that strictly outranks it, so the last rule, the lower shard, needs no
// comparison. When no shard is eligible, the least-loaded one is taken, the
// lowest among equals: the same order over scores that are all zero. The
// tally is read only on a score tie, which keeps the load out of the dense
// loop's common path.
func outranks(score, bestScore float64, counts []int64, j int, bestCount int64) bool {
	return score > bestScore || (score == bestScore && counts[j] < bestCount)
}

// selectShard evaluates Alg. 1 lines 4-9 with telemetry: the fitness
// scores[j] − w·E(j), E(j) the commit-round mean of shard j (see
// Telemetry), maximised in one pass over the shard tallies, seeded with
// shard 0 so the loop body carries no best==-1 branch and never re-reads
// counts for the incumbent. As Alg. 1, it has no capacity bound; a placer
// without telemetry decides through selectSupport, and the differential
// tests hold the two equal.
//
//optchain:hotpath one call per stream transaction with telemetry.
func (p *OptChainPlacer) selectShard(scores []float64, counts []int64) int {
	best := 0
	bestFit := scores[0] - p.weight*shardMean(p.tel, 0)
	bestCount := counts[0]
	for j := 1; j < len(counts); j++ {
		if fit := scores[j] - p.weight*shardMean(p.tel, j); outranks(fit, bestFit, counts, j, bestCount) {
			best, bestFit, bestCount = j, fit, counts[j]
		}
	}
	return best
}

// selectSupport is the argmax of Alg. 1 over the shards holding fewer than
// bound transactions when E(j) does not depend on j: the fitness order is
// then the score order, every score outside the support of p'(u) (the
// pending vector of t) is 0 and every one inside it is positive, so the
// dense argmax is the best eligible pending entry (by outranks; the entries
// ascend by shard) and the least-loaded shard when there is none. That
// shard is eligible whenever any shard is, so the fallback is the dense
// capped argmax's too. The floats compared are the ones the dense loop
// compares (t2sTally.dense), so masses that collapse in float64 tie here as
// they do there. Under normalization a supported shard that is still empty
// scores 0 like the unsupported ones and is left to the fallback.
//
//optchain:hotpath one call per stream transaction without telemetry.
func selectSupport(t *t2sTally, counts []int64, bound int64, normalize bool) int {
	best := -1
	var bestScore float64
	var bestCount int64
	for i, s := range t.pendS {
		c := counts[s]
		if c >= bound {
			continue
		}
		score := qToFloat(t.pendV[i])
		if normalize {
			if c == 0 {
				continue
			}
			score /= float64(c)
		}
		if best < 0 || outranks(score, bestScore, counts, int(s), bestCount) {
			best, bestScore, bestCount = int(s), score, c
		}
	}
	if best >= 0 {
		return best
	}
	best = 0
	for j, c := range counts {
		if c < counts[best] {
			best = j
		}
	}
	return best
}

// Place implements placement.Placer: Alg. 1 of the paper.
//
//optchain:hotpath one call per stream transaction.
func (p *OptChainPlacer) Place(u txgraph.Node, inputs []txgraph.Node) int {
	asn := p.idx.asn
	var best int
	if p.tel == nil {
		bound := int64(math.MaxInt64)
		if p.cap != nil {
			bound = p.cap.Bound(asn.Len())
		}
		p.idx.prepareVector(u, inputs) // lines 2-3
		best = selectSupport(&p.idx.tally, asn.CountsView(), bound, p.idx.normalize)
	} else {
		scores := p.idx.Prepare(u, inputs)             // lines 2-3
		best = p.selectShard(scores, asn.CountsView()) // lines 4-9
	}
	p.idx.Commit(u, best)
	asn.Place(u, best) // line 10
	return best
}

// Assignment implements placement.Placer.
func (p *OptChainPlacer) Assignment() *placement.Assignment { return p.idx.asn }

// Name implements placement.Placer: "OptChain", or "T2S" for NewT2SPlacer's.
func (p *OptChainPlacer) Name() string { return p.name }

// Scores exposes the T2S index for inspection (examples, debugging).
func (p *OptChainPlacer) Scores() *T2SIndex { return p.idx }

var _ placement.Placer = (*OptChainPlacer)(nil)
