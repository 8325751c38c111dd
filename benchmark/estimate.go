package main

import (
	"math"
	"slices"
)

// A slice is timed in segments: rows[r][k] is the time round r spent in
// segment k, a fixed share of the slice's work one to three milliseconds
// long. On this host (a shared VM whose neighbours slow memory-bound code
// by 1.2x to 2x, for milliseconds or for minutes at a time) no quantile of
// whole-slice times is steady: which one lands in the clean mode depends
// on how much of the run was clean. The minimum over the rounds of one
// segment needs a single clean pass over those few milliseconds, and a
// time can be too long but never too short, so the sum of the segments'
// minima estimates the slice on a quiet host. Recorded per-chunk times of
// 500 rounds showed it to be the steadiest of min, second-lowest, lower
// quartile and median at every segment length, and steadier the shorter
// the segment (README.md has the table).

// columns turns rows into one column per segment. Rows may differ in
// length by a segment or two (the simulator's sub-seeds run for slightly
// different virtual times): the segments past the shortest row's last are
// folded into that one.
func columns(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	k := len(rows[0])
	for _, row := range rows {
		k = min(k, len(row))
	}
	cols := make([][]float64, k)
	for _, row := range rows {
		for j, v := range row {
			if j < k {
				cols[j] = append(cols[j], v)
			} else {
				cols[k-1][len(cols[k-1])-1] += v
			}
		}
	}
	return cols
}

// quietSum is the quiet-host time of a whole slice: every segment's
// minimum over the rounds, summed. A slice recorded as a single value is
// its minimum over the rounds.
func quietSum(rows [][]float64) float64 {
	sum := 0.0
	for _, col := range columns(rows) {
		sum += slices.Min(col)
	}
	return sum
}

// quietMedian is for a value that is itself an in-segment median (a
// latency): every segment's minimum over the rounds, and of those the
// median.
func quietMedian(rows [][]float64) float64 {
	cols := columns(rows)
	q := make([]float64, len(cols))
	for j, col := range cols {
		q[j] = slices.Min(col)
	}
	return median(q)
}

// totals is each round's whole-slice time.
func totals(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for i, row := range rows {
		for _, v := range row {
			out[i] += v
		}
	}
	return out
}

// tailPercentiles is the ladder tail picks from.
var tailPercentiles = []float64{50, 90, 99, 99.9}

// tail returns the highest percentile of the ladder that still has at
// least ten samples beyond it, and its value: p90 of 100 samples, p99 of
// 8000. Fewer than twenty samples support only the median.
func tail(v []float64) (pct, value float64) {
	s := slices.Sorted(slices.Values(v))
	pct = tailPercentiles[0]
	for _, p := range tailPercentiles[1:] {
		if beyond(len(s), p) >= 10 {
			pct = p
		}
	}
	return pct, s[rank(len(s), pct)]
}

// rank is the index of percentile p in n sorted samples (nearest rank).
func rank(n int, p float64) int {
	i := int(math.Ceil(float64(n)*p/100)) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples above percentile p of n.
func beyond(n int, p float64) int { return n - 1 - rank(n, p) }

// median of v (the nearest-rank p50, as every in-slice median here).
func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	return s[rank(len(s), 50)]
}

// quartiles returns the three cut points Python's
// statistics.quantiles(v, n=4) gives (the exclusive method), so the
// spreads printed by -aa are the ones the acceptance driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// iqrRel is the interquartile distance as a share of the median.
func iqrRel(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
