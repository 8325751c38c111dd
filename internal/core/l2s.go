package core

// Telemetry supplies the client-observable shard parameters of §IV-C: the
// exponential communication rate λc (estimated "through frequently sampling
// between the user and shard Si") and the exponential verification rate λv
// (estimated "from observation of recent consensus time of shard i and its
// current queue size"). The simulation feeds live values; offline
// experiments use StaticTelemetry.
//
// The placer reads it through shardMean alone: E(j) in Alg. 1 line 9 is the
// commit-round mean at the candidate shard j. The protocol-faithful
// two-phase reading (§III-A) is
//
//	E(j) = E[max_{i∈Sin} hypoexp(λc_i, λv_i)] + E[hypoexp(λc_j, λv_j)]
//
// a lock round bounded by the slowest input shard, then a commit round at
// j. The lock round depends only on the input shards, so it is the same
// for every candidate and cancels out of the argmax; the paper's own
// convolution reading (line 6, the self-convolution of the all-input-proofs
// density) cancels the same way. The lock estimate is a latency worth
// reporting, not a term worth deciding with, and the placer never computes
// it. For a coinbase transaction E(j) is the output shard's expected
// latency either way: pure temporal balancing, as the paper intends.
// alg1_oracle_test.go keeps the lock term as printed and holds the placer
// to it.
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

// shardMean returns the commit-round mean of shard s, E[hypoexp(λc, λv)] =
// 1/λc + 1/λv: the E(j) of Alg. 1 with the lock round cancelled (see
// Telemetry). Degenerate rates (zero or negative) give 0, a shard the
// telemetry knows nothing about, not an infinitely slow one.
func shardMean(tel Telemetry, s int) float64 {
	lc, lv := tel.CommRate(s), tel.VerifyRate(s)
	if lc <= 0 || lv <= 0 {
		return 0
	}
	return 1/lc + 1/lv
}

var _ Telemetry = StaticTelemetry{}
