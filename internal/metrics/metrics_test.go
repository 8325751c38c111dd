package metrics

import (
	"testing"
	"time"

	"optchain/internal/stats"
)

func TestLatencyRecorder(t *testing.T) {
	r := &LatencyRecorder{}
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second} {
		r.Observe(d)
	}
	if r.Count() != 4 {
		t.Fatalf("count = %d", r.Count())
	}
	s := r.Summary()
	if s.Mean != 2.5 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if got := r.Percentile(50); got != 2.5 {
		t.Fatalf("P50 = %v", got)
	}
	if got := r.FractionWithin(2 * time.Second); got != 0.5 {
		t.Fatalf("FractionWithin(2s) = %v", got)
	}
}

// Percentile sorts once and re-sorts after an Observe: it must read as a
// fresh sort of the samples at every point, and leave the samples in
// arrival order.
func TestLatencyPercentileTracksObserve(t *testing.T) {
	r := &LatencyRecorder{}
	if got := r.Percentile(50); got != 0 {
		t.Fatalf("empty P50 = %v", got)
	}
	r.Reserve(8)
	for i, d := range []time.Duration{9, 3, 7, 1, 8, 2} {
		r.Observe(d * time.Second)
		for _, p := range []float64{0, 50, 99, 100} {
			if got, want := r.Percentile(p), stats.Percentile(r.samples, p); got != want {
				t.Fatalf("after %d samples P%v = %v, want %v", i+1, p, got, want)
			}
		}
	}
	if got := r.samples; got[0] != 9 || got[5] != 2 {
		t.Fatalf("samples reordered: %v", got)
	}
}

func TestQueueTracker(t *testing.T) {
	q := &QueueTracker{}
	lens := []int{5, 10, 0}
	q.Sample(10*time.Second, lens)
	lens[0] = 99 // mutation after sampling must not leak in
	q.Sample(20*time.Second, []int{2, 2, 2})

	maxs, mins := q.MaxMin()
	if maxs[0] != 10 || mins[0] != 0 {
		t.Fatalf("sample 0 max/min = %d/%d", maxs[0], mins[0])
	}
	if maxs[1] != 2 || mins[1] != 2 {
		t.Fatalf("sample 1 max/min = %d/%d", maxs[1], mins[1])
	}
	if q.PeakMax() != 10 {
		t.Fatalf("peak = %d", q.PeakMax())
	}
}

func TestQueueTrackerEmpty(t *testing.T) {
	q := &QueueTracker{}
	maxs, mins := q.MaxMin()
	if len(maxs) != 0 || len(mins) != 0 {
		t.Fatal("empty tracker produced series")
	}
	if q.PeakMax() != 0 {
		t.Fatal("empty peak")
	}
}
