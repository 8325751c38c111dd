package experiment

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// BaselineSchema versions the BENCH_baseline.json layout so downstream
// tooling (CI artifact diffing, PERFORMANCE.md tables) can detect format
// changes. v2 added the per-workload-scenario Scenarios section; v3
// recorded the workload spec on every simulation row; v4 moved the writer
// onto the experiment Reporter path — every row carries its stable cell ID
// and the record names the reporter that produced it; v5 added a parallel
// placement scaling section, which v6 removed with parallel placement.
const BaselineSchema = "optchain-bench-baseline/v6"

// BaselineReporterName is the provenance string stamped into Baseline
// records produced by this package's baseline reporter.
const BaselineReporterName = "optchain/experiment baseline reporter"

// Baseline is the machine-readable performance record emitted by
// `optchain-bench -baseline-json` (and `make bench-json`). It captures the
// hot-path micro costs (ns/op, allocs/op) and end-to-end simulation
// throughput per strategy × protocol, so every PR's perf trajectory is
// comparable against the committed BENCH_baseline.json.
type Baseline struct {
	Schema string `json:"schema"`
	// Reporter names the sink that produced the record (provenance; v4).
	Reporter    string         `json:"reporter"`
	GeneratedAt string         `json:"generated_at,omitempty"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Quick       bool           `json:"quick"`
	Seed        int64          `json:"seed"`
	Micro       []BaselineItem `json:"micro"`
	Sim         []BaselineSim  `json:"sim"`
	// Scenarios is the per-workload-scenario section: one quick streaming
	// simulation per scenario × strategy, so placement quality under skew,
	// bursts, drift, and attack is tracked PR over PR alongside the
	// single-trace numbers.
	Scenarios []BaselineSim `json:"scenarios"`
}

// BaselineItem is one micro-benchmark: per-unit timing and allocation cost
// of a hot path (unit = one transaction or one event).
type BaselineItem struct {
	Name        string  `json:"name"`
	Unit        string  `json:"unit"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

// BaselineSim is one end-to-end simulation cell: virtual steady-state
// throughput plus the wall-clock rate the host sustained while computing
// it.
type BaselineSim struct {
	// CellID is the cell's stable experiment identity (v4) — the same ID
	// the jsonl/csv reporters carry, so baseline rows join against sweep
	// output.
	CellID string `json:"cell_id"`
	// Workload is the workload spec driving the cell: the streamed scenario
	// in the Scenarios section, the materialized default workload in the
	// Sim section.
	Workload      string  `json:"workload"`
	Strategy      string  `json:"strategy"`
	Protocol      string  `json:"protocol"`
	Shards        int     `json:"shards"`
	Rate          float64 `json:"rate"`
	Txs           int     `json:"txs"`
	Committed     int     `json:"committed"`
	SteadyTPS     float64 `json:"steady_tps"`
	CrossFraction float64 `json:"cross_fraction"`
	WallSeconds   float64 `json:"wall_seconds"`
	TxsPerWallSec float64 `json:"txs_per_wall_sec"`
}

// BaselineReporter accumulates sweep rows into a Baseline record and
// writes the indented JSON at End. Streamed rows land in the Scenarios
// section, materialized rows in Sim — mirroring how the two baseline
// sweeps are defined. It is the "baseline" entry of the reporter registry;
// bench composes it with the micro-benchmark section via SetMicro.
type BaselineReporter struct {
	w io.Writer
	b Baseline
	// Stamp controls the generated_at timestamp (on by default; tests turn
	// it off for reproducible bytes).
	Stamp bool
}

// NewBaselineReporter builds a baseline reporter writing to w. When used
// generically (`-reporter baseline` on an arbitrary sweep) the record
// carries empty — never null — sections for whatever the sweep did not
// produce: Micro is filled only by internal/bench via SetMicro.
func NewBaselineReporter(w io.Writer) *BaselineReporter {
	return &BaselineReporter{
		w: w,
		b: Baseline{
			Schema:     BaselineSchema,
			Reporter:   BaselineReporterName,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Micro:      []BaselineItem{},
			Sim:        []BaselineSim{},
			Scenarios:  []BaselineSim{},
		},
		Stamp: true,
	}
}

// newBaselineFromOpts is the registry factory.
func newBaselineFromOpts(w io.Writer, opts map[string]string) (Reporter, error) {
	if err := checkReporterOpts("baseline", opts, "stamp"); err != nil {
		return nil, err
	}
	r := NewBaselineReporter(w)
	if v, ok := opts["stamp"]; ok {
		on, err := onOff("baseline", "stamp", v)
		if err != nil {
			return nil, err
		}
		r.Stamp = on
	}
	return r, nil
}

// SetMicro attaches the micro-benchmark section (collected by
// internal/bench, which owns the testing.Benchmark harness).
func (b *BaselineReporter) SetMicro(items []BaselineItem) { b.b.Micro = items }

// Baseline returns the record accumulated so far — for callers that want
// the data without writing it (End writes).
func (b *BaselineReporter) Baseline() *Baseline { return &b.b }

// Begin implements Reporter.
func (b *BaselineReporter) Begin(s Sweep, p Params) error {
	b.b.Quick = p.Quick
	b.b.Seed = p.Seed
	return nil
}

// Row implements Reporter: streamed rows accumulate into the Scenarios
// section, materialized rows into Sim.
func (b *BaselineReporter) Row(r Row) error {
	cell := BaselineSim{
		CellID:        r.ID,
		Workload:      r.Workload,
		Strategy:      r.Strategy,
		Protocol:      r.Protocol,
		Shards:        r.Shards,
		Rate:          r.Rate,
		Txs:           r.Total,
		Committed:     r.Committed,
		SteadyTPS:     r.SteadyTPS,
		CrossFraction: r.CrossFraction,
		WallSeconds:   r.WallSeconds,
	}
	if cell.WallSeconds > 0 {
		cell.TxsPerWallSec = float64(r.Committed) / cell.WallSeconds
	}
	if r.Streamed {
		b.b.Scenarios = append(b.b.Scenarios, cell)
	} else {
		b.b.Sim = append(b.b.Sim, cell)
	}
	return nil
}

// End implements Reporter: it stamps and writes the accumulated record.
// With multiple sweeps reported through the same BaselineReporter, call
// End once, after the last (Runner.Report calls End per sweep; the write
// is idempotent-safe because callers driving multiple sweeps use Row/Begin
// directly — see bench.WriteBaselineJSON).
func (b *BaselineReporter) End() error {
	if b.Stamp {
		// Opt-in provenance stamp; excluded from golden comparisons.
		b.b.GeneratedAt = time.Now().UTC().Format(time.RFC3339) //optchain:wallclock
	}
	enc := json.NewEncoder(b.w)
	enc.SetIndent("", "  ")
	return enc.Encode(b.b)
}
