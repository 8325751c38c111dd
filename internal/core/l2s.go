package core

import (
	"optchain/internal/stats"
)

// Telemetry supplies the client-observable shard parameters of §IV-C: the
// exponential communication rate λc (estimated "through frequently sampling
// between the user and shard Si") and the exponential verification rate λv
// (estimated "from observation of recent consensus time of shard i and its
// current queue size"). The simulation feeds live values; offline
// experiments use StaticTelemetry.
type Telemetry interface {
	// CommRate returns λc for shard i, in 1/seconds.
	CommRate(shard int) float64
	// VerifyRate returns λv for shard i, in 1/seconds.
	VerifyRate(shard int) float64
}

// StaticTelemetry is a fixed-rate Telemetry, useful for tests and for
// modelling a homogeneous network.
type StaticTelemetry struct {
	Comm   []float64
	Verify []float64
}

// CommRate implements Telemetry.
func (s StaticTelemetry) CommRate(shard int) float64 { return s.Comm[shard] }

// VerifyRate implements Telemetry.
func (s StaticTelemetry) VerifyRate(shard int) float64 { return s.Verify[shard] }

// LatencyModel computes the L2S score E(j): the expected confirmation
// latency if the prepared transaction is placed into shard j given that its
// inputs live in inputShards (deduplicated; empty for coinbase).
//
// Note on fidelity: the paper's Alg. 1 line 6 writes E(j) as the
// expectation of the self-convolution of f_v^(j), the all-input-proofs
// density — under which E(j) barely depends on j, because the input shards
// appear in every candidate's proof set and would cancel out of the argmax.
// We implement the protocol-faithful two-phase reading instead (the one
// §III-A describes): a lock round bounded by the slowest input shard,
// followed by a commit round at the output shard j:
//
//	E(j) = E[max_{i∈Sin} hypoexp(λc_i, λv_i)] + E[hypoexp(λc_j, λv_j)]
//
// For coinbase transactions this degenerates to the output shard's expected
// latency — pure temporal balancing, as the paper intends.
//
// Shard independence: ZeroLatency, the model of every placer built without
// telemetry (the gateway, offline placement, the Engine without
// WithTelemetry, the T2S-based placer always), gives the same E(j) for every
// j, so the term cannot change the argmax of Alg. 1. OptChainPlacer
// recognises that model by its type and decides over the support of p'(u),
// under the T2S placer's capacity bound when it has one, instead of over all
// k shards: it never asks the model anything and never looks up the input
// shards. ExactL2S and FastL2S depend on j through the commit round, and any
// other implementation is taken to; for those the placer evaluates all k
// candidates, with no capacity bound, as Alg. 1 does.
type LatencyModel interface {
	ProofLatency(j int, inputShards []int) float64
}

// BatchLatency is an optional LatencyModel extension: fill dst (one slot
// per candidate shard) with E(j) for every j at once. Both terms of the
// two-phase model split cleanly — the lock round depends only on the input
// shards, the commit round only on j — so a batched implementation pays
// the lock computation once per transaction instead of once per candidate:
// k times fewer quadratures for ExactL2S, k fewer max-scans for FastL2S.
// The OptChain placer uses this path automatically when the configured
// model implements it; the per-j values must equal ProofLatency(j, ·)
// exactly, so the argmax is unchanged.
type BatchLatency interface {
	ProofLatencies(dst []float64, inputShards []int)
}

// ZeroLatency ignores load entirely (E(j) = 0); it degenerates OptChain to
// the T2S argmax without its capacity bound. It is what a placer without
// telemetry runs with, and the one shard-independent model (see
// LatencyModel).
type ZeroLatency struct{}

// ProofLatency implements LatencyModel.
func (ZeroLatency) ProofLatency(int, []int) float64 { return 0 }

// ProofLatencies implements BatchLatency.
func (ZeroLatency) ProofLatencies(dst []float64, _ []int) {
	for j := range dst {
		dst[j] = 0
	}
}

// ExactL2S evaluates E(j) by numerical quadrature of the lock-round maximum
// plus the closed-form commit-round mean.
type ExactL2S struct {
	Tel Telemetry
}

// ProofLatency implements LatencyModel.
func (m ExactL2S) ProofLatency(j int, inputShards []int) float64 {
	hs := make([]stats.Hypoexponential2, 0, len(inputShards))
	for _, s := range inputShards {
		hs = append(hs, stats.Hypoexponential2{Lc: m.Tel.CommRate(s), Lv: m.Tel.VerifyRate(s)})
	}
	lock, err := stats.MaxHypoexpMean(hs)
	if err != nil {
		lock = 0 // degenerate rates: treat the shard as unknown, not infinite
	}
	return lock + shardMean(m.Tel, j)
}

// ProofLatencies implements BatchLatency: the quadrature of the lock-round
// maximum runs once, then every candidate adds only its commit-round mean.
func (m ExactL2S) ProofLatencies(dst []float64, inputShards []int) {
	hs := make([]stats.Hypoexponential2, 0, len(inputShards))
	for _, s := range inputShards {
		hs = append(hs, stats.Hypoexponential2{Lc: m.Tel.CommRate(s), Lv: m.Tel.VerifyRate(s)})
	}
	lock, err := stats.MaxHypoexpMean(hs)
	if err != nil {
		lock = 0
	}
	for j := range dst {
		dst[j] = lock + shardMean(m.Tel, j)
	}
}

// FastL2S approximates the lock round in closed form as the largest
// single-shard mean, E(j) ≈ max_{i∈Sin}(1/λc_i + 1/λv_i) + (1/λc_j +
// 1/λv_j). It underestimates the expectation of the maximum but preserves
// its ordering in each coordinate, which is what the argmax in Alg. 1
// consumes; it avoids per-transaction quadrature (thousands of exp()
// evaluations) on the simulation's hot path. The exact-vs-fast ablation is
// benchmarked in bench_test.go.
type FastL2S struct {
	Tel Telemetry
}

// ProofLatency implements LatencyModel.
func (m FastL2S) ProofLatency(j int, inputShards []int) float64 {
	var lock float64
	for _, s := range inputShards {
		if mean := shardMean(m.Tel, s); mean > lock {
			lock = mean
		}
	}
	return lock + shardMean(m.Tel, j)
}

// ProofLatencies implements BatchLatency: one max-scan of the input shards,
// then a single commit-round mean per candidate — the same arithmetic as
// ProofLatency, evaluated k times cheaper.
//
//optchain:hotpath one call per stream transaction under OptChain placement.
func (m FastL2S) ProofLatencies(dst []float64, inputShards []int) {
	var lock float64
	for _, s := range inputShards {
		if mean := shardMean(m.Tel, s); mean > lock {
			lock = mean
		}
	}
	for j := range dst {
		dst[j] = lock + shardMean(m.Tel, j)
	}
}

// shardMean returns 1/λc + 1/λv for a shard, or 0 for degenerate rates.
func shardMean(tel Telemetry, s int) float64 {
	lc, lv := tel.CommRate(s), tel.VerifyRate(s)
	if lc <= 0 || lv <= 0 {
		return 0
	}
	return 1/lc + 1/lv
}

// Compile-time interface compliance checks.
var (
	_ LatencyModel = ZeroLatency{}
	_ LatencyModel = ExactL2S{}
	_ LatencyModel = FastL2S{}
	_ BatchLatency = ZeroLatency{}
	_ BatchLatency = ExactL2S{}
	_ BatchLatency = FastL2S{}
	_ Telemetry    = StaticTelemetry{}
)
