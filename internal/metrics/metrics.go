// Package metrics provides the collectors behind the paper's evaluation
// figures: per-transaction latency (Figs. 3, 8, 9, 10) and per-shard
// queue-size series with their max and min (Fig. 6).
package metrics

import (
	"slices"
	"sort"
	"time"

	"optchain/internal/stats"
)

// LatencyRecorder accumulates per-transaction confirmation latencies. It is
// not safe for concurrent use; once recording has stopped and one
// Percentile call has returned, concurrent readers are.
type LatencyRecorder struct {
	samples []float64 // seconds
	sorted  []float64 // samples in ascending order; stale when shorter
}

// Reserve makes room for n samples.
func (r *LatencyRecorder) Reserve(n int) {
	r.samples = slices.Grow(r.samples, n)
}

// Observe records one confirmation latency.
func (r *LatencyRecorder) Observe(d time.Duration) {
	r.samples = append(r.samples, d.Seconds())
	r.sorted = r.sorted[:0]
}

// Count returns the number of recorded samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Summary returns descriptive statistics in seconds.
func (r *LatencyRecorder) Summary() stats.Summary { return stats.Summarize(r.samples) }

// Percentile returns the p-th percentile latency in seconds. The sample is
// sorted once, on the first call after an Observe.
func (r *LatencyRecorder) Percentile(p float64) float64 {
	if len(r.sorted) != len(r.samples) {
		r.sorted = append(r.sorted[:0], r.samples...)
		sort.Float64s(r.sorted)
	}
	return stats.PercentileSorted(r.sorted, p)
}

// FractionWithin returns the fraction of transactions confirmed within d
// (the paper quotes "70% of transactions within 10 seconds").
func (r *LatencyRecorder) FractionWithin(d time.Duration) float64 {
	return stats.FractionBelow(r.samples, d.Seconds())
}

// QueueTracker samples per-shard queue lengths over time.
type QueueTracker struct {
	Times  []time.Duration
	Queues [][]int // Queues[i][s] = queue length of shard s at Times[i]
}

// Sample appends one observation; lens is copied.
func (q *QueueTracker) Sample(now time.Duration, lens []int) {
	cp := make([]int, len(lens))
	copy(cp, lens)
	q.Times = append(q.Times, now)
	q.Queues = append(q.Queues, cp)
}

// MaxMin returns the series of (max, min) queue sizes across shards — the
// Fig. 6 curves.
func (q *QueueTracker) MaxMin() (maxs, mins []int) {
	maxs = make([]int, len(q.Queues))
	mins = make([]int, len(q.Queues))
	for i, lens := range q.Queues {
		if len(lens) == 0 {
			continue
		}
		mx, mn := lens[0], lens[0]
		for _, v := range lens[1:] {
			if v > mx {
				mx = v
			}
			if v < mn {
				mn = v
			}
		}
		maxs[i], mins[i] = mx, mn
	}
	return maxs, mins
}

// PeakMax returns the largest queue length ever observed on any shard.
func (q *QueueTracker) PeakMax() int {
	maxs, _ := q.MaxMin()
	peak := 0
	for _, v := range maxs {
		if v > peak {
			peak = v
		}
	}
	return peak
}
