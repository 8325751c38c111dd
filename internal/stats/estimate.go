// Package stats provides the estimators behind OptChain's Latency-to-Shard
// (L2S) score (paper §IV-C): the smoothed communication and verification
// rates a client observes per shard. Beside them it holds the random
// samplers of the synthetic dataset generator and the summary statistics
// of the benchmark harness.
package stats

import "math"

// EWMA is an exponentially weighted moving average with smoothing factor
// Alpha in (0,1]; higher Alpha weights recent observations more. The zero
// value is unusable; construct with NewEWMA.
//
// The paper's client estimates each shard's expected communication time
// "through frequently sampling" and expected verification time "from
// observation of recent consensus time" — both are EWMAs here.
type EWMA struct {
	alpha float64
	value float64
	seen  bool
}

// NewEWMA returns an EWMA with the given smoothing factor, clamped to (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 || math.IsNaN(alpha) {
		alpha = 0.2
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a sample into the average.
func (e *EWMA) Observe(x float64) {
	if !e.seen {
		e.value = x
		e.seen = true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current average, or def if nothing has been observed.
func (e *EWMA) Value(def float64) float64 {
	if !e.seen {
		return def
	}
	return e.value
}

// RateFromMean converts an observed mean delay (in seconds) into an
// exponential rate λ = 1/mean, guarding degenerate inputs.
func RateFromMean(meanSeconds float64) float64 {
	if meanSeconds <= 0 || math.IsNaN(meanSeconds) || math.IsInf(meanSeconds, 0) {
		return 1e6 // effectively instantaneous
	}
	return 1 / meanSeconds
}

// VerificationRate estimates a shard's verification rate λv from its recent
// per-block consensus latency, its current queue length, and the block
// capacity: a transaction entering a queue of q with blocks of size B waits
// roughly ceil((q+1)/B) consensus rounds.
func VerificationRate(consensusSeconds float64, queueLen, blockSize int) float64 {
	if blockSize <= 0 {
		blockSize = 1
	}
	if consensusSeconds <= 0 {
		consensusSeconds = 1e-6
	}
	rounds := float64(queueLen+blockSize) / float64(blockSize)
	return RateFromMean(consensusSeconds * rounds)
}
