package main

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// seq returns 1..n shuffled deterministically, so the estimators are shown
// not to depend on slice order.
func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[(i*7)%n] = float64(i + 1) // 7 is coprime to every n used here
	}
	return v
}

// A slice timed in segments: each segment's minimum over the rounds,
// summed, so a slow spell that hits another segment in every round costs
// nothing, where the best whole slice still carries one.
func TestQuietSumTakesEverySegmentAtItsQuietest(t *testing.T) {
	rows := make([][]float64, 12)
	for r := range rows {
		rows[r] = []float64{1, 1, 1, 1}
		rows[r][r%4] = 2 // every round is slow somewhere: no whole slice under 5
	}
	if got := quietSum(rows); got != 4 {
		t.Errorf("quietSum = %v, want 4", got)
	}
	if got := slices.Min(totals(rows)); got != 5 {
		t.Errorf("the best whole slice = %v, want 5", got)
	}
	if got := quietSum([][]float64{{3}, {2}, {4}}); got != 2 {
		t.Errorf("quietSum of single values = %v, want their minimum", got)
	}
	if got := quietMedian([][]float64{{3, 1, 2}, {4, 1, 2}, {3, 5, 9}}); got != 2 {
		t.Errorf("quietMedian = %v, want 2", got)
	}
	rows[0][0] = 7
	if quietSum(rows); rows[0][0] != 7 {
		t.Error("quietSum changed its argument")
	}
}

// Rows that run a segment or two longer are folded into the shortest
// row's last segment, so no time is dropped and none is compared with a
// segment of other work.
func TestColumnsFoldsRaggedTails(t *testing.T) {
	cols := columns([][]float64{{1, 2, 3}, {1, 2, 3, 4, 5}, {1, 2, 3, 4}})
	want := [][]float64{{1, 1, 1}, {2, 2, 2}, {3, 12, 7}}
	if !reflect.DeepEqual(cols, want) {
		t.Errorf("columns = %v, want %v", cols, want)
	}
	if got := totals([][]float64{{1, 2, 3}, {4, 5}}); !reflect.DeepEqual(got, []float64{6, 9}) {
		t.Errorf("totals = %v", got)
	}
	if columns(nil) != nil {
		t.Error("columns of no rows")
	}
}

// Every POST of a client falls in one of postSegs segments of equal
// count, whatever the count.
func TestPostSegSplitsEvenly(t *testing.T) {
	for _, n := range []int{100, 4000, 25, 3} {
		per, ends := make([]int, postSegs), 0
		for i := 0; i < n; i++ {
			if i > 0 && postSeg(i, n) < postSeg(i-1, n) {
				t.Fatalf("postSeg(%d, %d) steps back", i, n)
			}
			per[postSeg(i, n)]++
			ends += btoi(lastOfSeg(i, n))
		}
		if ends != min(postSegs, n) {
			t.Errorf("%d POSTs close %d segments", n, ends)
		}
		lo, hi := n, 0
		for _, c := range per {
			lo, hi = min(lo, c), max(hi, c)
		}
		if hi-lo > 1 {
			t.Errorf("%d POSTs split %v", n, per)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		pct     float64
		value   float64
		outside int
	}{
		{100, 90, 90, 10},    // a bulk slice: p90, exactly ten beyond
		{8000, 99, 7920, 80}, // an rpc slice: p99; p99.9 would leave 8
		{10001, 99.9, 9991, 10},
		{109, 90, 99, 10},
		{99, 50, 50, 49}, // p90 of 99 leaves 9: fall back to the median
		{5, 50, 3, 2},
	} {
		pct, v := tail(seq(c.n))
		if pct != c.pct || v != c.value {
			t.Errorf("tail of 1..%d = p%g %v, want p%g %v", c.n, pct, v, c.pct, c.value)
		}
		if got := beyond(c.n, pct); got != c.outside {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, pct, got, c.outside)
		}
	}
}

func TestMedianNearestRank(t *testing.T) {
	if got := median(seq(100)); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50", got)
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(data, n=4) on the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(5), 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{10, 12, 11, 13, 40, 12, 11, 10, 12, 11}, 10.75, 11.5, 12.25},
	} {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got, want := iqrRel(seq(10)), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrRel of 1..10 = %v, want %v", got, want)
	}
}
