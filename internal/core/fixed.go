package core

import "math/bits"

// Fixed-point representation of the un-normalized T2S score p'(v).
//
// Score mass is carried as unsigned Q32.32: 32 integer bits, 32 fractional
// bits, so the quantum is 2^-32 ≈ 2.3e-10 and the α restart mass (0.5) is
// exact. Fixed point buys the hot path two things floating point cannot:
//
//   - Accumulation is exact integer addition, so merge order never changes
//     the result.
//   - The per-entry divide by |Nout(v)| becomes a multiply by a per-input
//     64-bit reciprocal (one integer division per *input*, one widening
//     multiply per *entry*), removing the fdiv from the innermost loop.
//
// Division and scaling round toward zero; the quantization error per entry
// is below 2^-31 and is damped geometrically by the (1−α) factor as mass
// propagates, so decisions match exact arithmetic to ~1e-9 (measured in
// TestT2SIndexMatchesDenseReference).

// qFracBits is the number of fractional bits in a Q32.32 score.
const qFracBits = 32

// qOne is 1.0 in Q32.32.
const qOne = uint64(1) << qFracBits

// qFromFloat converts a non-negative float64 to Q32.32, rounding to nearest.
func qFromFloat(f float64) uint64 {
	if f <= 0 {
		return 0
	}
	return uint64(f*float64(qOne) + 0.5)
}

// qToFloat converts a Q32.32 value to float64 exactly (the scale is a power
// of two, so this is a single exact multiply).
func qToFloat(q uint64) float64 {
	return float64(q) * (1.0 / float64(qOne))
}

// qMul multiplies two Q32.32 values (e.g. score mass by the (1−α) damping
// factor), truncating below the quantum.
func qMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi<<qFracBits | lo>>qFracBits
}

// qRecip returns the 0.64 fixed-point reciprocal ⌊(2^64−1)/d⌋ used by
// qDivRecip. d must be ≥ 2 (d == 1 callers skip the multiply entirely —
// the reciprocal of 1 would round every value down by one quantum). The
// divisor is an output count, almost always a handful, so small ones are a
// table load instead of a 64-bit divide.
func qRecip(d uint64) uint64 {
	if d < uint64(len(qRecipSmall)) {
		return qRecipSmall[d]
	}
	return ^uint64(0) / d
}

// qRecipSmall[d] is ⌊(2^64−1)/d⌋ for 1 ≤ d < 32 (entry 0 is never read).
var qRecipSmall = func() (tab [32]uint64) {
	for d := 1; d < len(tab); d++ {
		tab[d] = ^uint64(0) / uint64(d)
	}
	return tab
}()

// qDivRecip divides a Q32.32 value by the integer whose qRecip is r: the
// high word of the widening multiply is ⌊v·r/2^64⌋ ≈ v/d.
func qDivRecip(v, r uint64) uint64 {
	hi, _ := bits.Mul64(v, r)
	return hi
}

// qSatAdd adds two Q32.32 values, saturating at the maximum representable
// mass instead of wrapping. Score mass near 2^32 is unreachable for any real
// stream (it would require ~4·10^9 units of restart mass funnelled into one
// shard coordinate); the guard exists so adversarial inputs degrade to a
// pinned score rather than a corrupted one.
func qSatAdd(a, b uint64) uint64 {
	s := a + b
	if s < a {
		return ^uint64(0)
	}
	return s
}
