package core

import (
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

// T2SPlacer is the paper's "T2S-based" strategy (§IV-B, Tables I-II):
// place u into argmax_i p(u)[i], subject to the same (1+ε)⌊n/k⌋ capacity
// bound as Greedy (placement.Capacity). Ties (including all coinbase
// transactions, whose score vector is empty) go to the least-loaded eligible
// shard.
type T2SPlacer struct {
	idx *T2SIndex
	cap placement.Capacity
}

// NewT2SPlacer creates a T2S-based placer over k shards for an expected
// stream of n transactions.
func NewT2SPlacer(k, n int, alpha, eps float64) *T2SPlacer {
	asn := placement.NewAssignment(k, n)
	return &T2SPlacer{
		idx: NewT2SIndex(alpha, DefaultTruncate, asn, n),
		cap: placement.NewCapacity(n, k, eps),
	}
}

// selectShard is the capacity-bounded argmax fused with the least-loaded
// fallback in one pass over the shard tallies, so a fully saturated stream
// costs no second traversal.
//
//optchain:hotpath one call per stream transaction.
func (p *T2SPlacer) selectShard(scores []float64, counts []int64, bound int64) int {
	best := -1
	var bestCount int64
	var bestVal float64
	least := 0
	leastCount := counts[0]
	for j, c := range counts {
		if c < leastCount {
			least, leastCount = j, c
		}
		if c >= bound {
			continue
		}
		if best == -1 || scores[j] > bestVal ||
			(scores[j] == bestVal && c < bestCount) {
			best, bestVal, bestCount = j, scores[j], c
		}
	}
	if best == -1 {
		best = least
	}
	return best
}

// Place implements placement.Placer.
//
//optchain:hotpath one call per stream transaction.
func (p *T2SPlacer) Place(u txgraph.Node, inputs []txgraph.Node) int {
	scores := p.idx.Prepare(u, inputs)
	asn := p.idx.asn
	best := p.selectShard(scores, asn.CountsView(), p.cap.Bound(asn.Len()))
	p.idx.Commit(u, best)
	asn.Place(u, best)
	return best
}

// Assignment implements placement.Placer.
func (p *T2SPlacer) Assignment() *placement.Assignment { return p.idx.asn }

// Name implements placement.Placer.
func (p *T2SPlacer) Name() string { return "T2S" }

// Scores exposes the T2S index (ablations, inspection).
func (p *T2SPlacer) Scores() *T2SIndex { return p.idx }

// OptChainPlacer is the full OptChain algorithm (Alg. 1): Temporal Fitness
// placement combining the T2S score with the L2S latency estimate,
// su = argmax_j p(u)[j] − w·E(j).
type OptChainPlacer struct {
	idx    *T2SIndex
	lat    LatencyModel
	latB   BatchLatency // non-nil when lat supports batched evaluation
	weight float64

	// uniform: E(j) is the same for every shard (see LatencyModel), so the
	// L2S term cannot change the argmax and Place decides over the support
	// of p'(u) alone. shardBuf and latBuf serve only the other models.
	uniform  bool
	shardBuf []int
	latBuf   []float64 // reusable E(j) buffer, one slot per shard
}

// OptChainConfig parameterizes NewOptChain. Zero fields take the paper's
// defaults.
type OptChainConfig struct {
	K     int // number of shards (required)
	N     int // expected stream length (capacity hint only)
	Alpha float64
	// Weight is the L2S coefficient (paper: 0.01).
	Weight float64
	// Truncate is the relative sparse-vector truncation threshold
	// (0 < x < 1); negative means exact (no truncation).
	Truncate float64
	// Latency estimates E(j); defaults to ZeroLatency (pure T2S) when nil,
	// under which the placer decides over the support of p'(u) alone (see
	// LatencyModel).
	Latency LatencyModel
	// NormalizeScores divides p'(u)[i] by |Si| as the paper's formula
	// writes. Off by default for the temporal-fitness placer: with a fixed
	// weight, the normalized score's magnitude decays as shards grow
	// (∝1/|Si|) while E(j) stays in seconds, so the fitness degenerates to
	// pure load balancing over time. Un-normalized p' keeps the two terms
	// on comparable scales at every stream position; the L2S term carries
	// the balancing duty the normalization was doubling up on. The
	// normalization ablation is exercised in the benchmark harness.
	NormalizeScores bool
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
	if cfg.Latency == nil {
		cfg.Latency = ZeroLatency{}
	}
	asn := placement.NewAssignment(cfg.K, cfg.N)
	idx := NewT2SIndex(cfg.Alpha, cfg.Truncate, asn, cfg.N)
	idx.SetNormalize(cfg.NormalizeScores)
	latB, _ := cfg.Latency.(BatchLatency)
	p := &OptChainPlacer{
		idx:    idx,
		lat:    cfg.Latency,
		latB:   latB,
		weight: cfg.Weight,
	}
	// A weight that is not finite turns w·0 into NaN for every candidate;
	// such a placer keeps the dense loop so that it goes on deciding as it did.
	if _, zero := cfg.Latency.(ZeroLatency); zero && cfg.Weight*0 == 0 {
		p.uniform = true
	} else {
		p.latBuf = make([]float64, cfg.K)
	}
	return p
}

// selectShard evaluates Alg. 1 lines 4-9: fill lat with E(j) for every
// candidate — in one batched call when the model supports it, hoisting the
// j-independent lock round out of the candidate loop — then run the fitness
// argmax as one pass over the shard tallies, seeded with shard 0 so the
// loop body carries no best==-1 branch and never re-reads counts for the
// incumbent. It runs under every model that can tell shards apart — the
// simulator's live L2S, WithTelemetry; a placer without telemetry decides
// through selectSupport, and the differential tests hold the two equal.
//
//optchain:hotpath one call per stream transaction.
func (p *OptChainPlacer) selectShard(scores []float64, counts []int64, inputShards []int, lat []float64) int {
	if p.latB != nil {
		p.latB.ProofLatencies(lat, inputShards)
	} else {
		for j := range lat {
			lat[j] = p.lat.ProofLatency(j, inputShards)
		}
	}
	best := 0
	bestFit := scores[0] - p.weight*lat[0]
	bestCount := counts[0]
	for j := 1; j < len(counts); j++ {
		fit := scores[j] - p.weight*lat[j]
		if fit > bestFit || (fit == bestFit && counts[j] < bestCount) {
			best, bestFit, bestCount = j, fit, counts[j]
		}
	}
	return best
}

// selectSupport is selectShard when E(j) does not depend on j: the fitness
// order is then the score order, every score outside the support of p'(u)
// is 0 and every one inside it is positive, so the dense argmax is the
// argmax over the pending entries — by score, then fewer transactions, then
// lower shard (the entries ascend by shard) — and the least-loaded shard
// when there are none. The floats compared are the ones the dense loop
// compares, so masses that collapse in float64 tie here as they do there.
// Under normalization a supported shard that is still empty scores 0 like
// the unsupported ones and is left to the fallback.
//
//optchain:hotpath one call per stream transaction without telemetry.
func (p *OptChainPlacer) selectSupport(counts []int64) int {
	t := &p.idx.tally
	best := -1
	var bestScore float64
	var bestCount int64
	for i, s := range t.pendS {
		c := counts[s]
		score := qToFloat(t.pendV[i])
		if p.idx.normalize {
			if c == 0 {
				continue
			}
			score /= float64(c)
		}
		if best < 0 || score > bestScore || (score == bestScore && c < bestCount) {
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
	if p.uniform {
		p.idx.prepareVector(u, inputs) // lines 2-3
		best = p.selectSupport(asn.CountsView())
	} else {
		scores := p.idx.Prepare(u, inputs) // lines 2-3
		p.shardBuf = asn.InputShards(inputs, p.shardBuf)
		best = p.selectShard(scores, asn.CountsView(), p.shardBuf, p.latBuf) // lines 4-9
	}
	p.idx.Commit(u, best)
	asn.Place(u, best) // line 10
	return best
}

// Assignment implements placement.Placer.
func (p *OptChainPlacer) Assignment() *placement.Assignment { return p.idx.asn }

// Name implements placement.Placer.
func (p *OptChainPlacer) Name() string { return "OptChain" }

// Scores exposes the T2S index for inspection (examples, debugging).
func (p *OptChainPlacer) Scores() *T2SIndex { return p.idx }

// Compile-time interface compliance checks.
var (
	_ placement.Placer = (*T2SPlacer)(nil)
	_ placement.Placer = (*OptChainPlacer)(nil)
)
