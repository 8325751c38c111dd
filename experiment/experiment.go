// Package experiment is the public sweep layer: declarative experiment
// grids over the paper's axes (shard count, offered rate, placement
// strategy, commit protocol, workload spec), executed by a Runner that
// streams typed Rows as cells complete into pluggable Reporter sinks.
//
// The paper's evidence is its sweep figures (Tables I-II, Figs. 3-11);
// internal/bench registers the sweeps behind them and a reporter that sets
// the paper's quoted figures beside our rows, but the machinery that runs
// them is this package — open, so sweeps compose and results are data:
//
//	r := experiment.NewRunner(experiment.Params{N: 60_000, Seed: 1})
//	sweep := experiment.Sweep{
//	    Name:       "latency-grid",
//	    Strategies: []string{"OptChain", "OmniLedger"},
//	    Shards:     []int{4, 8, 16},
//	    Rates:      []float64{2000, 4000, 6000},
//	}
//	for row, err := range r.Stream(ctx, sweep) { ... }
//
// Two registries sit beside optchain.RegisterStrategy / RegisterProtocol /
// RegisterWorkload, and all five are the same name table (internal/names):
// names match case-insensitively and are drawn from [A-Za-z0-9._-], a
// refused registration wraps ErrBadRegistration, and an unknown name fails
// with the registry's sentinel (ErrUnknownReporter, ErrUnknownSweep, …)
// listing the registered set.
//
//   - RegisterReporter: result sinks, selected by bare name. Built-ins:
//     "text" (aligned table), "jsonl" (one JSON object per row: the form of
//     the committed BENCH_quality.jsonl ledger), and "csv".
//   - RegisterSweep: named sweep definitions, selectable from
//     cmd/optchain-bench via -sweep / -list-sweeps. internal/bench
//     registers the paper's grids (grid, peak, scenarios, table1, ...).
//   - Strategy/protocol/workload names inside a Sweep resolve through the
//     engine's registries, so externally registered extensions sweep
//     exactly like built-ins. A cell takes the registered spelling of its
//     strategy and protocol before its ID and row are built, so "optchain"
//     and "OptChain" name the same cell.
//
// # Execution model
//
// Runner.Stream returns an iter.Seq2[Row, error]: cells fan out across the
// worker budget (every cell seeds its own RNG from Params.Seed, so results
// are independent of scheduling), and rows are delivered in canonical cell
// order as the completion frontier advances — row identity (Row.ID) is a
// pure function of the cell, never of timing. Cancelling the context stops
// the sweep promptly (in-flight simulations abort between events); rows
// already delivered remain valid, and Report flushes them to the reporter
// before returning the cancellation error.
//
// # Where a cell's transactions come from
//
// A sim cell pulls its workload from workload.New one transaction per
// issue event, so arrival modulation (burst, drift Gap shaping) and
// placement feedback (adversarial sources) reach the simulator as they do
// in optchain-sim. A Metis cell streams its workload too, but its offline
// partition needs the whole graph, so it takes the partition from a
// materialization of the same spec, and the simulator feeds its source no
// placements (an adaptive attacker answering the replay would attack a
// graph other than the one partitioned). Placement cells place a
// materialized stream offline. Materialized
// streams and Metis partitions are built once per (length, spec) behind a
// singleflight cache inside the Runner, so concurrent cells needing the
// same one block on one computation.
//
// # Row files
//
// jsonl reporter output, the golden fixtures, the BENCH_quality.jsonl
// ledger and the row cache (Params.CacheDir) are one format: Rows, one per
// line, the cache's behind a CacheSchema header. DecodeRows is its only
// reader and Diff its only comparator; a strict Diff (no AllowMissing)
// passes only when both sides hold the same cells.
package experiment

import (
	"errors"
	"runtime"

	"optchain/internal/names"
)

// Typed errors. Match with errors.Is.
var (
	// ErrBadSweep reports an invalid sweep definition (empty axis value,
	// unknown strategy/protocol/workload name, bad cell).
	ErrBadSweep = errors.New("experiment: invalid sweep")
	// ErrUnknownReporter reports a reporter name with no registered factory.
	ErrUnknownReporter = errors.New("experiment: unknown reporter")
	// ErrUnknownSweep reports a sweep name with no registered builder.
	ErrUnknownSweep = errors.New("experiment: unknown sweep")
	// ErrBadRegistration reports an invalid registry call (empty name, a
	// character outside [A-Za-z0-9._-], nil factory or builder, duplicate
	// name). It is names.ErrBadRegistration, which every registry in the
	// module wraps.
	ErrBadRegistration = names.ErrBadRegistration
	// ErrBadCache reports an unusable row cache or diff input: a corrupt or
	// truncated cache line, a duplicate cell ID, a schema mismatch, or a
	// cache written under different parameters (seed, validators). Damage is
	// never silently recomputed around — delete the cache directory to
	// rebuild it from scratch.
	ErrBadCache = errors.New("experiment: bad row cache")
	// ErrQualityRegression reports a quality-gate failure: Diff found at
	// least one joined cell whose metrics moved in the worse direction
	// beyond tolerance, a cell only the new run has, or cells missing from
	// the new run when the tolerances require full coverage.
	ErrQualityRegression = errors.New("experiment: placement quality regression")
)

// Params scales sweep execution. Zero values take defaults. The same value
// parameterizes every sweep a Runner executes, so cached cells are shared
// across sweeps (the fig3 grid warms the cells figs 4-10 present as
// different views).
type Params struct {
	// N is the stream length for simulation cells (default 60k; the paper
	// used 10M — the reported shapes are scale-stable).
	N int
	// TableN is the stream length for offline placement cells (default
	// 200k).
	TableN int
	// Seed drives dataset generation and simulations.
	Seed int64
	// Validators per shard (default 400, the paper's committee size).
	Validators int
	// Quick shrinks every grid for smoke tests and testing.B benchmarks.
	Quick bool
	// Workers bounds parallel cell execution (default GOMAXPROCS).
	Workers int
	// Protocol is the default commit backend for sweeps that don't pin one
	// (default omniledger, the paper's). Resolved by name through the open
	// registry.
	Protocol string
	// Strategies overrides the default strategy axis (default: OptChain,
	// OmniLedger, Metis, Greedy — the paper's four).
	Strategies []string
	// Workloads overrides the scenario set of the `scenarios` sweep
	// (default: every standalone registered workload scenario). Entries may
	// be full workload specs.
	Workloads []string
	// Workload is the default workload spec driving cells that don't pin
	// one: a spec ("hotspot:exp=1.5", "mix:bitcoin=0.7,hotspot=0.3",
	// "replay:trace.tan") used in place of the calibrated Bitcoin-like
	// generator. Empty selects the calibrated default.
	Workload string
	// CacheDir enables the persistent row cache: every completed cell's Row
	// is appended to CacheDir/rows.jsonl keyed by its stable cell ID, and
	// re-runs serve cached rows instead of re-simulating — an interrupted
	// grid resumes where it died. Cached rows are flat data: WallSeconds is
	// zeroed and Row.Result is nil (a reporter reading Result, such as the
	// fidelity reporter's within-10 s share, sees nil on a served row). The
	// file binds to Seed and Validators; opening it under different values
	// fails with ErrBadCache, as does any corrupt or truncated line —
	// damage is loud, never a silent recompute. Empty disables persistence.
	CacheDir string
}

func (p *Params) fillDefaults() {
	if p.N <= 0 {
		p.N = 60_000
	}
	if p.TableN <= 0 {
		p.TableN = 200_000
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Validators <= 0 {
		p.Validators = 400
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	if p.Protocol == "" {
		p.Protocol = "omniledger"
	}
	if p.Quick {
		if p.N > 12_000 {
			p.N = 12_000
		}
		if p.TableN > 30_000 {
			p.TableN = 30_000
		}
		if p.Validators > 16 {
			p.Validators = 16
		}
	}
}

// DefaultStrategies is the strategy axis sweeps compare when neither the
// sweep nor Params pins one — the paper's four.
func DefaultStrategies() []string {
	return []string{"OptChain", "OmniLedger", "Metis", "Greedy"}
}

// strategies resolves the effective default strategy axis.
func (p Params) strategies() []string {
	if len(p.Strategies) > 0 {
		return p.Strategies
	}
	return DefaultStrategies()
}

// WorkloadLabel names the stream driving cells with no per-cell workload
// spec — the Params.Workload spec, or the calibrated default.
func (p Params) WorkloadLabel() string {
	if p.Workload == "" {
		return "bitcoin"
	}
	return p.Workload
}

// workloadOf resolves a cell's workload spec: spec itself, or the
// WorkloadLabel default when it is empty.
func (p Params) workloadOf(spec string) string {
	if spec == "" {
		return p.WorkloadLabel()
	}
	return spec
}
