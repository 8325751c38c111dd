package experiment

import (
	"strconv"

	"optchain/internal/sim"
)

// Row is one typed sweep result — the unit Reporters consume. Identity
// fields (ID, Sweep, Index) are a pure function of the sweep definition;
// metric fields come from the cell's execution. Sim cells fill the
// simulation metrics; placement cells fill Cross/CrossPct and leave the
// simulation block zero.
type Row struct {
	// ID is the cell's stable identity (see Cell), independent of worker
	// scheduling and of which sweep the cell appears in.
	ID string `json:"id"`
	// Sweep is the name of the sweep that produced this row.
	Sweep string `json:"sweep"`
	// Index is the row's position in the sweep's canonical cell order.
	Index int `json:"index"`

	// Kind, Strategy, Protocol, Shards, Rate, Workload, and Txs echo the
	// resolved cell (defaults filled in).
	Kind     Kind    `json:"kind"`
	Strategy string  `json:"strategy"`
	Protocol string  `json:"protocol,omitempty"`
	Shards   int     `json:"shards"`
	Rate     float64 `json:"rate,omitempty"`
	Workload string  `json:"workload"`
	Txs      int     `json:"txs"`
	// Streamed reports whether the cell's workload was streamed (pulled one
	// transaction per issue event) or materialized. Metis cells inside a
	// streaming sweep materialize, and this field says so.
	Streamed bool `json:"streamed"`
	// Tag echoes the cell tag, when set.
	Tag string `json:"tag,omitempty"`

	// Simulation metrics (KindSim). SteadyTPS is sim.Result.SteadyTPS:
	// commits over [0.2·T + P50, T + P50] (T = issue duration), which is
	// not a steady rate when that span holds only a few block intervals
	// (small Txs).
	Total         int     `json:"total,omitempty"`
	Committed     int     `json:"committed,omitempty"`
	SteadyTPS     float64 `json:"steady_tps,omitempty"`
	ThroughputTPS float64 `json:"throughput_tps,omitempty"`
	AvgLatencySec float64 `json:"avg_latency_sec,omitempty"`
	MaxLatencySec float64 `json:"max_latency_sec,omitempty"`
	P50Sec        float64 `json:"p50_sec,omitempty"`
	P99Sec        float64 `json:"p99_sec,omitempty"`
	Retries       int64   `json:"retries,omitempty"`
	Aborts        int64   `json:"aborts,omitempty"`
	PeakQueue     int     `json:"peak_queue,omitempty"`

	// Placement metrics. CrossFraction is shared: both kinds report the
	// fraction of cross-shard transactions; placement cells additionally
	// report the raw count over their measured window (Table II's metric).
	CrossFraction float64 `json:"cross_fraction"`
	Cross         int64   `json:"cross,omitempty"`
	// MaxShardShare is a placement cell's largest shard over the mean shard
	// (1 is balanced, Shards is one shard holding everything); 0 on sim rows.
	MaxShardShare float64 `json:"max_shard_share,omitempty"`

	// WallSeconds is the host time the cell took to execute (0 when the
	// row was served from the runner's cache).
	WallSeconds float64 `json:"wall_seconds"`

	// Result is the full simulation record (window timelines, queue series,
	// latency CDF) for in-process reporters. Nil for placement cells and
	// for rows served from the persistent row cache. Not serialized:
	// reporters carry the flat fields above.
	Result *sim.Result `json:"-"`
	// Cell is the resolved cell that produced the row. Not serialized.
	Cell Cell `json:"-"`
}

// Field is one (name, value) pair of a row's canonical tabular form.
type Field struct {
	Name  string
	Value string
}

// fnum formats a float the way every tabular reporter shares: shortest
// round-trip representation, so text, CSV, and JSONL carry identical
// numbers for the same seed.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Fields returns the row's canonical tabular form — the column set and
// order the text and CSV reporters share. WallSeconds is deliberately
// excluded: it is host noise, and tabular outputs stay byte-comparable
// across runs of the same seed (JSONL carries it for profiling).
func (r Row) Fields() []Field {
	return []Field{
		{"id", r.ID},
		{"sweep", r.Sweep},
		{"index", strconv.Itoa(r.Index)},
		{"kind", string(r.Kind)},
		{"strategy", r.Strategy},
		{"protocol", r.Protocol},
		{"shards", strconv.Itoa(r.Shards)},
		{"rate", fnum(r.Rate)},
		{"workload", r.Workload},
		{"txs", strconv.Itoa(r.Txs)},
		{"streamed", strconv.FormatBool(r.Streamed)},
		{"total", strconv.Itoa(r.Total)},
		{"committed", strconv.Itoa(r.Committed)},
		{"steady_tps", fnum(r.SteadyTPS)},
		{"throughput_tps", fnum(r.ThroughputTPS)},
		{"avg_latency_sec", fnum(r.AvgLatencySec)},
		{"max_latency_sec", fnum(r.MaxLatencySec)},
		{"p50_sec", fnum(r.P50Sec)},
		{"p99_sec", fnum(r.P99Sec)},
		{"retries", strconv.FormatInt(r.Retries, 10)},
		{"aborts", strconv.FormatInt(r.Aborts, 10)},
		{"peak_queue", strconv.Itoa(r.PeakQueue)},
		{"cross_fraction", fnum(r.CrossFraction)},
		{"cross", strconv.FormatInt(r.Cross, 10)},
		{"max_shard_share", fnum(r.MaxShardShare)},
	}
}
