// Package bench regenerates every table and figure of the paper's
// evaluation (§IV-B Tables I-II, §V Figs. 2-11) plus four ablations (L2S
// on/off, α sensitivity, L2S weight, protocol backend). Each experiment
// prints rows/series in the same layout the paper reports, so
// paper-vs-measured comparison is line-by-line.
//
// The execution machinery lives in the public optchain/experiment package:
// every experiment here is a thin declarative Sweep definition plus a
// paper-layout renderer over the typed rows. Because the Runner memoizes
// cells by identity, the Fig. 3 grid produces the simulation results that
// Figs. 4-10 present as different views — an `all` run pays for the sweep
// once. The same sweep definitions are registered by name
// (experiment.RegisterSweep), so cmd/optchain-bench -sweep streams them
// through any registered reporter (text, jsonl, csv, baseline) instead of
// the paper layouts.
package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"optchain/experiment"
	"optchain/internal/workload"
)

// Params scales the experiments (alias of experiment.Params; see that type
// for field documentation).
type Params = experiment.Params

// Harness owns sweep execution and the shared caches — a thin wrapper
// around the public experiment.Runner that adds the paper's named
// experiments.
type Harness struct {
	*experiment.Runner
}

// NewHarness prepares a harness with the given parameters.
func NewHarness(p Params) *Harness {
	return &Harness{Runner: experiment.NewRunner(p)}
}

// workloadLabel names the stream driving the figure/table sweeps — the
// selected workload spec, or the calibrated default.
func (h *Harness) workloadLabel() string { return h.Params().WorkloadLabel() }

// simGrids returns the shard and rate grids for simulation experiments.
func simGrids(p Params) (shards []int, rates []float64) {
	if p.Quick {
		return []int{4, 8}, []float64{1000, 2000}
	}
	return []int{4, 6, 8, 10, 12, 14, 16}, []float64{2000, 3000, 4000, 5000, 6000}
}

// tableShards returns the shard grid for Tables I-II.
func tableShards(p Params) []int {
	if p.Quick {
		return []int{4, 16}
	}
	return []int{4, 8, 16, 32, 64}
}

// placers is the strategy set compared in the figures (overridable via
// Params.Strategies).
func placers(p Params) []string {
	if len(p.Strategies) > 0 {
		return p.Strategies
	}
	return experiment.DefaultStrategies()
}

// maxGrid returns the largest shard count and rate of the sweep — the
// configuration Figs. 5-7 and 10 single out (paper: 16 shards, 6000 tps).
func maxGrid(p Params) (int, float64) {
	shards, rates := simGrids(p)
	return shards[len(shards)-1], rates[len(rates)-1]
}

// simCell is the canonical grid cell: the runner-default protocol and
// stream length, streamed when the harness runs in streaming mode.
func simCell(p Params, strategy string, k int, rate float64) experiment.Cell {
	return experiment.Cell{
		Kind:     experiment.KindSim,
		Strategy: strategy,
		Shards:   k,
		Rate:     rate,
		Streamed: p.Streaming,
	}
}

// row executes (or reads from cache) one canonical grid cell.
func (h *Harness) row(ctx context.Context, strategy string, k int, rate float64) (experiment.Row, error) {
	return h.Cell(ctx, simCell(h.Params(), strategy, k, rate))
}

// scenarioRow executes (or reads from cache) one streamed scenario cell.
func (h *Harness) scenarioRow(ctx context.Context, spec, strategy string, shards int, rate float64) (experiment.Row, error) {
	return h.Cell(ctx, experiment.Cell{
		Kind:     experiment.KindSim,
		Strategy: strategy,
		Shards:   shards,
		Rate:     rate,
		Workload: spec,
		Streamed: true,
	})
}

// warm pre-executes a sweep across the worker budget so the sequential
// render loop below it reads every cell from cache.
func (h *Harness) warm(ctx context.Context, s experiment.Sweep) error {
	_, err := h.Collect(ctx, s)
	return err
}

// GridSweep is the full Fig. 3 sweep: every (strategy, shards, rate) cell
// of the simulation grid.
func GridSweep(p Params) experiment.Sweep {
	shards, rates := simGrids(p)
	return experiment.Sweep{
		Name:        "grid",
		Description: "full (strategy x shards x rate) simulation grid behind Figs. 3-4 and 8-9",
		Strategies:  placers(p),
		Shards:      shards,
		Rates:       rates,
	}
}

// PeakSweep is one cell per compared strategy at the peak configuration —
// the set Figs. 5-7 and 10 consume.
func PeakSweep(p Params) experiment.Sweep {
	k, r := maxGrid(p)
	return experiment.Sweep{
		Name:        "peak",
		Description: "per-strategy cells at the peak configuration (Figs. 5-7, 10)",
		Strategies:  placers(p),
		Shards:      []int{k},
		Rates:       []float64{r},
	}
}

// SaturationSweep is the Fig. 11 scalability run: each shard count offered
// more load than it can serve, measuring sustainable throughput.
func SaturationSweep(p Params) experiment.Sweep {
	shardGrid := []int{4, 8, 16, 32, 62}
	if p.Quick {
		shardGrid = []int{4, 8}
	}
	var cells []experiment.Cell
	for _, k := range shardGrid {
		offered := float64(450 * k)
		n := int(offered * 25)
		if n > 600_000 {
			n = 600_000
		}
		if n < p.N {
			n = p.N
		}
		cells = append(cells, experiment.Cell{
			Kind:     experiment.KindSim,
			Strategy: "OptChain",
			Shards:   k,
			Rate:     offered,
			Txs:      n,
			Streamed: p.Streaming,
		})
	}
	return experiment.Sweep{
		Name:        "saturation",
		Description: "OptChain sustainable-tps vs shard count under saturating load (Fig. 11)",
		Cells:       cells,
	}
}

// scenarioNames is the workload set the scenario sweeps cover: the
// Params.Workloads override (entries may be full specs, e.g.
// "mix:bitcoin=0.7,hotspot=0.3"), or every standalone registered scenario
// (replay is excluded by default — it needs a trace-file argument).
func scenarioNames(p Params) []string {
	if len(p.Workloads) > 0 {
		return p.Workloads
	}
	return workload.StandaloneNames()
}

// scenarioPlacers is the strategy set compared per scenario. Metis is
// excluded even when configured: it replays an offline partition of a
// materialized graph, which contradicts a streaming scenario by definition.
func scenarioPlacers(p Params) []string {
	var out []string
	for _, s := range placers(p) {
		if !strings.EqualFold(s, "Metis") {
			out = append(out, s)
		}
	}
	return out
}

// scenarioGrid returns the (shards, rate) configuration of the scenario
// sweep — the paper's mid-size setup, shrunk under Quick.
func scenarioGrid(p Params) (int, float64) {
	if p.Quick {
		return 4, 1000
	}
	return 8, 2000
}

// ScenariosSweep compares the placement strategies across every workload
// scenario, streamed — the dimension the paper's single-trace evaluation
// lacks.
func ScenariosSweep(p Params) experiment.Sweep {
	shards, rate := scenarioGrid(p)
	var cells []experiment.Cell
	for _, name := range scenarioNames(p) {
		for _, s := range scenarioPlacers(p) {
			cells = append(cells, experiment.Cell{
				Kind:     experiment.KindSim,
				Strategy: s,
				Shards:   shards,
				Rate:     rate,
				Workload: name,
				Streamed: true,
			})
		}
	}
	return experiment.Sweep{
		Name:        "scenarios",
		Description: "strategy set against every workload scenario, streamed (skew, bursts, drift, attack)",
		Cells:       cells,
	}
}

// SmokeSweep is the tiny streaming sweep CI pushes through the JSONL
// reporter (`make sweep-smoke`): 2 strategies x 2 shard counts, streamed.
func SmokeSweep(p Params) experiment.Sweep {
	return experiment.Sweep{
		Name:        "smoke",
		Description: "tiny 2x2 streaming sweep for CI smoke validation",
		Strategies:  []string{"OptChain", "OmniLedger"},
		Shards:      []int{2, 4},
		Rates:       []float64{800},
		Txs:         4000,
		Streaming:   true,
	}
}

func init() {
	for _, s := range []struct {
		name  string
		build func(Params) experiment.Sweep
	}{
		{"grid", GridSweep},
		{"peak", PeakSweep},
		{"saturation", SaturationSweep},
		{"scenarios", ScenariosSweep},
		{"smoke", SmokeSweep},
		{"table1", TableISweep},
		{"table2", TableIISweep},
		{"alpha", AlphaSweep},
		{"quality", QualitySweep},
		{"weight", WeightSweep},
		{"backend", BackendSweep},
		{"l2s", L2SSweep},
	} {
		build := s.build
		probe := build(Params{})
		experiment.MustRegisterSweep(s.name, probe.Description, func(p Params) (experiment.Sweep, error) {
			return build(p), nil
		})
	}
}

// Experiments maps CLI names to paper-layout renderers. Every renderer
// threads the caller's context into its cells, so cancelling it (Ctrl-C in
// cmd/optchain-bench) stops mid-grid instead of finishing the sweep.
var Experiments = map[string]func(ctx context.Context, h *Harness, w io.Writer) error{
	"fig2":             Fig2,
	"table1":           TableI,
	"table2":           TableII,
	"fig3":             Fig3,
	"fig4":             Fig4,
	"fig5":             Fig5,
	"fig6":             Fig6,
	"fig7":             Fig7,
	"fig8":             Fig8,
	"fig9":             Fig9,
	"fig10":            Fig10,
	"fig11":            Fig11,
	"scenarios":        Scenarios,
	"ablation-l2s":     AblationL2S,
	"ablation-alpha":   AblationAlpha,
	"ablation-weight":  AblationWeight,
	"ablation-backend": AblationBackend,
}

// Names returns the experiment names in canonical order.
func Names() []string {
	names := make([]string, 0, len(Experiments))
	for n := range Experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// RunAll executes every experiment in canonical order.
func RunAll(ctx context.Context, h *Harness, w io.Writer) error {
	order := []string{
		"fig2", "table1", "table2",
		"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"scenarios",
		"ablation-l2s", "ablation-alpha", "ablation-weight", "ablation-backend",
	}
	for _, name := range order {
		if err := Experiments[name](ctx, h, w); err != nil {
			return fmt.Errorf("bench: %s: %w", name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}
