package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"optchain"
)

// latencyBuckets are the upper bounds (seconds) of the enqueue-to-decision
// latency histogram, log-spaced from 100µs to 2.5s; an implicit +Inf bucket
// catches the rest. Hand-rolled Prometheus exposition — no client library.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// Who placed a unit: the goroutine that brought it, on an idle server, or
// the dispatcher, after it queued.
const (
	byCaller = iota
	byDispatcher
)

// metrics aggregates the server-side counters exposed on /metrics alongside
// the engine's own placement statistics.
type metrics struct {
	mu         sync.Mutex
	httpByCode map[int]int64 // guarded by mu — HTTP responses by status code
	placed     int64         // guarded by mu — lines answered with a decision
	rejected   int64         // guarded by mu — lines refused by admission control (429)
	expired    int64         // guarded by mu — lines whose context expired while queued
	invalids   int64         // guarded by mu — malformed / unresolvable lines
	batches    int64         // guarded by mu — PlaceBatch calls issued
	batchedTxs int64         // guarded by mu — transactions placed across all batches
	units      [2]int64      // guarded by mu — units placed, by byCaller / byDispatcher
	latCounts  []int64       // guarded by mu — histogram bucket counts (+Inf last)
	latSum     float64       // guarded by mu — histogram sum, seconds
	snapshots  int64         // guarded by mu — state snapshots written
	snapErrors int64         // guarded by mu — failed snapshot attempts
	lastSnap   time.Time     // guarded by mu — completion time of the last snapshot
	snapBytes  int64         // guarded by mu — size of the last state file written
	snapTook   time.Duration // guarded by mu — how long writing it held the engine
}

func newMetrics() *metrics {
	return &metrics{
		httpByCode: make(map[int]int64),
		latCounts:  make([]int64, len(latencyBuckets)+1),
	}
}

func (m *metrics) http(code int) {
	m.mu.Lock()
	m.httpByCode[code]++
	m.mu.Unlock()
}

// place observes one answered unit that by (byCaller or byDispatcher)
// placed: n lines, each decided lat after the unit was admitted (one
// histogram update of weight n).
func (m *metrics) place(by, n int, lat time.Duration) {
	sec := lat.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, sec)
	m.mu.Lock()
	m.units[by]++
	m.placed += int64(n)
	m.latCounts[i] += int64(n)
	m.latSum += sec * float64(n)
	m.mu.Unlock()
}

func (m *metrics) reject(lines int) {
	m.mu.Lock()
	m.rejected += int64(lines)
	m.mu.Unlock()
}

func (m *metrics) expire(lines int) {
	m.mu.Lock()
	m.expired += int64(lines)
	m.mu.Unlock()
}

func (m *metrics) invalid(lines int) {
	m.mu.Lock()
	m.invalids += int64(lines)
	m.mu.Unlock()
}

func (m *metrics) batch(txs int) {
	m.mu.Lock()
	m.batches++
	m.batchedTxs += int64(txs)
	m.mu.Unlock()
}

func (m *metrics) snapshot(bytes int64, took time.Duration) {
	m.mu.Lock()
	m.snapshots++
	m.lastSnap = time.Now()
	m.snapBytes, m.snapTook = bytes, took
	m.mu.Unlock()
}

func (m *metrics) snapshotError() {
	m.mu.Lock()
	m.snapErrors++
	m.mu.Unlock()
}

// Quantile estimates the given latency quantile (0..1) from the histogram
// by linear interpolation inside the covering bucket, the same estimate
// Prometheus' histogram_quantile computes. It returns 0 before any
// placement.
func (m *metrics) Quantile(q float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, c := range m.latCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen int64
	for i, c := range m.latCounts {
		if float64(seen+c) < rank {
			seen += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = latencyBuckets[i-1]
		}
		hi := 2 * lo // crude cap for the +Inf bucket
		if i < len(latencyBuckets) {
			hi = latencyBuckets[i]
		}
		if c == 0 {
			return hi
		}
		return lo + (hi-lo)*(rank-float64(seen))/float64(c)
	}
	return latencyBuckets[len(latencyBuckets)-1]
}

// writeTo renders the Prometheus text exposition (version 0.0.4): the
// engine's placement statistics plus the server's admission, batching,
// latency, and snapshot counters. Label sets are emitted in sorted order so
// consecutive scrapes of an idle server are byte-identical.
func (m *metrics) writeTo(w io.Writer, eng *optchain.Engine, queueDepth, queueCap int) error {
	st := eng.Stats()
	var b []byte
	line := func(format string, args ...any) {
		b = fmt.Appendf(b, format, args...)
	}

	line("# HELP optchain_engine_placed_total Transactions placed on the engine's stream.\n")
	line("# TYPE optchain_engine_placed_total counter\n")
	line("optchain_engine_placed_total %d\n", st.Placed)
	line("# HELP optchain_engine_cross_total Cross-shard transactions placed.\n")
	line("# TYPE optchain_engine_cross_total counter\n")
	line("optchain_engine_cross_total %d\n", st.Cross)
	line("# HELP optchain_engine_cross_fraction Cross-shard fraction of placed transactions.\n")
	line("# TYPE optchain_engine_cross_fraction gauge\n")
	line("optchain_engine_cross_fraction %g\n", st.CrossFraction)
	line("# HELP optchain_engine_shard_txs Transactions assigned to each shard.\n")
	line("# TYPE optchain_engine_shard_txs gauge\n")
	for shard, n := range st.ShardCounts {
		line("optchain_engine_shard_txs{shard=\"%d\"} %d\n", shard, n)
	}
	line("# HELP optchain_engine_max_shard_share Largest shard's transaction count over the mean shard's (1 is balanced).\n")
	line("# TYPE optchain_engine_max_shard_share gauge\n")
	line("optchain_engine_max_shard_share %g\n", st.MaxShardShare)
	line("# HELP optchain_engine_slab_entries Sparse score-vector entries the T2S index holds now, for transactions with an unspent output.\n")
	line("# TYPE optchain_engine_slab_entries gauge\n")
	line("optchain_engine_slab_entries %d\n", st.SlabEntries)
	line("# HELP optchain_engine_state_bytes Heap held by the engine's per-transaction columns (computed from their capacities).\n")
	line("# TYPE optchain_engine_state_bytes gauge\n")
	line("optchain_engine_state_bytes %d\n", st.StateBytes)
	line("# HELP optchain_engine_retired_total Transactions whose declared outputs are all spent and whose score vector was dropped; optchain_engine_placed_total minus this is the transactions the index still holds live.\n")
	line("# TYPE optchain_engine_retired_total counter\n")
	line("optchain_engine_retired_total %d\n", st.RetiredTxs)
	line("# HELP optchain_engine_retired_refs_total Input references that named a retired transaction (more spenders than declared outputs); each was placed with no score mass from that parent.\n")
	line("# TYPE optchain_engine_retired_refs_total counter\n")
	line("optchain_engine_retired_refs_total %d\n", st.RetiredRefs)

	m.mu.Lock()
	line("# HELP optchain_serve_queue_depth Request lines currently waiting in the ingest queue.\n")
	line("# TYPE optchain_serve_queue_depth gauge\n")
	line("optchain_serve_queue_depth %d\n", queueDepth)
	line("# HELP optchain_serve_queue_capacity Ingest queue capacity in lines (admission-control bound).\n")
	line("# TYPE optchain_serve_queue_capacity gauge\n")
	line("optchain_serve_queue_capacity %d\n", queueCap)
	line("# HELP optchain_serve_requests_total HTTP responses by status code.\n")
	line("# TYPE optchain_serve_requests_total counter\n")
	codes := make([]int, 0, len(m.httpByCode))
	for code := range m.httpByCode {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		line("optchain_serve_requests_total{code=\"%d\"} %d\n", code, m.httpByCode[code])
	}
	line("# HELP optchain_serve_lines_total Placement requests by outcome.\n")
	line("# TYPE optchain_serve_lines_total counter\n")
	line("optchain_serve_lines_total{outcome=\"placed\"} %d\n", m.placed)
	line("optchain_serve_lines_total{outcome=\"rejected\"} %d\n", m.rejected)
	line("optchain_serve_lines_total{outcome=\"expired\"} %d\n", m.expired)
	line("optchain_serve_lines_total{outcome=\"invalid\"} %d\n", m.invalids)
	line("# HELP optchain_serve_batches_total PlaceBatch calls issued by the server.\n")
	line("# TYPE optchain_serve_batches_total counter\n")
	line("optchain_serve_batches_total %d\n", m.batches)
	line("# HELP optchain_serve_batched_txs_total Transactions placed across all batches.\n")
	line("# TYPE optchain_serve_batched_txs_total counter\n")
	line("optchain_serve_batched_txs_total %d\n", m.batchedTxs)
	line("# HELP optchain_serve_units_total Units placed (a Place call, or a window of a /v1/place body): by their caller on an idle server, or by the dispatcher after queueing.\n")
	line("# TYPE optchain_serve_units_total counter\n")
	line("optchain_serve_units_total{path=\"caller\"} %d\n", m.units[byCaller])
	line("optchain_serve_units_total{path=\"queued\"} %d\n", m.units[byDispatcher])
	line("# HELP optchain_serve_place_latency_seconds Admission-to-decision latency per line.\n")
	line("# TYPE optchain_serve_place_latency_seconds histogram\n")
	var cum int64
	for i, bound := range latencyBuckets {
		cum += m.latCounts[i]
		line("optchain_serve_place_latency_seconds_bucket{le=\"%g\"} %d\n", bound, cum)
	}
	cum += m.latCounts[len(latencyBuckets)]
	line("optchain_serve_place_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	line("optchain_serve_place_latency_seconds_sum %g\n", m.latSum)
	line("optchain_serve_place_latency_seconds_count %d\n", cum)
	line("# HELP optchain_serve_snapshots_total State snapshots written.\n")
	line("# TYPE optchain_serve_snapshots_total counter\n")
	line("optchain_serve_snapshots_total %d\n", m.snapshots)
	line("# HELP optchain_serve_snapshot_errors_total Failed snapshot attempts.\n")
	line("# TYPE optchain_serve_snapshot_errors_total counter\n")
	line("optchain_serve_snapshot_errors_total %d\n", m.snapErrors)
	if !m.lastSnap.IsZero() {
		line("# HELP optchain_serve_last_snapshot_unix_seconds Completion time of the last snapshot.\n")
		line("# TYPE optchain_serve_last_snapshot_unix_seconds gauge\n")
		line("optchain_serve_last_snapshot_unix_seconds %d\n", m.lastSnap.Unix())
		line("# HELP optchain_serve_last_snapshot_bytes Size of the last state file written.\n")
		line("# TYPE optchain_serve_last_snapshot_bytes gauge\n")
		line("optchain_serve_last_snapshot_bytes %d\n", m.snapBytes)
		line("# HELP optchain_serve_last_snapshot_seconds Time the last snapshot took, during which placement waited.\n")
		line("# TYPE optchain_serve_last_snapshot_seconds gauge\n")
		line("optchain_serve_last_snapshot_seconds %g\n", m.snapTook.Seconds())
	}
	m.mu.Unlock()

	_, err := w.Write(b)
	return err
}
