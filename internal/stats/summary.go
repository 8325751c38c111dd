package stats

import (
	"math"
	"sort"
)

// Summary holds basic descriptive statistics of a sample. Stddev is the
// unbiased sample estimator (÷(n−1)): the benches aggregate small per-cell
// samples, where the population form (÷n) systematically under-reports
// dispersion. A single observation has no dispersion estimate (Stddev 0).
type Summary struct {
	Count          int
	Mean, Max, Min float64
	Stddev         float64
}

// Summarize computes a Summary over xs. An empty sample yields zeros.
func Summarize(xs []float64) Summary {
	s := Summary{Count: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	var sum float64
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics. It sorts a copy.
func Percentile(xs []float64, p float64) float64 {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	sort.Float64s(cp)
	return PercentileSorted(cp, p)
}

// PercentileSorted is Percentile over a sample already in ascending order.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// FractionBelow returns the fraction of xs that are <= limit.
func FractionBelow(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x <= limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
