// Package bench registers the sweeps behind the paper's evaluation
// (§IV-B Tables I-II, §V Figs. 3-11), four ablations (L2S on/off, α
// sensitivity, L2S weight, protocol backend), the workload-scenario lab,
// the CI smoke sweep and the quality-gate sweep, plus the `fidelity`
// reporter that sets the figures the paper quotes beside our rows (see
// fidelity.go). Everything runs through the public optchain/experiment
// package: cmd/optchain-bench -sweep NAME streams a sweep through any
// registered reporter (text, jsonl, csv, fidelity). Fig. 2's TaN census is
// cmd/tanstats.
package bench

import (
	"strings"

	"optchain/experiment"
	"optchain/internal/workload"
)

// Params scales the experiments (alias of experiment.Params; see that type
// for field documentation).
type Params = experiment.Params

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
// configuration Figs. 5-7 and 10 single out, the paper's 16 shards at
// 6000 tps at full scale.
func maxGrid(p Params) (int, float64) {
	shards, rates := simGrids(p)
	return shards[len(shards)-1], rates[len(rates)-1]
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
// excluded even when configured: it streams the scenario's arrivals like
// the others, but it replays an offline partition, so a feedback-aware
// scenario runs blind against it (an offline partition cannot answer an
// adaptive attacker) and its row would measure a different stream from
// the online placers' rows beside it.
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
// scenario — the dimension the paper's single-trace evaluation lacks.
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
			})
		}
	}
	return experiment.Sweep{
		Name:        "scenarios",
		Description: "strategy set against every workload scenario, streamed (skew, bursts, drift, attack)",
		Cells:       cells,
	}
}

// SmokeSweep is the tiny sweep CI pushes through the JSONL reporter
// (`make sweep-smoke`): 2 strategies x 2 shard counts.
func SmokeSweep(p Params) experiment.Sweep {
	return experiment.Sweep{
		Name:        "smoke",
		Description: "tiny 2x2 sweep for CI smoke validation",
		Strategies:  []string{"OptChain", "OmniLedger"},
		Shards:      []int{2, 4},
		Rates:       []float64{800},
		Txs:         4000,
	}
}

// QualitySweep is the cell set `make quality-gate` runs and the committed
// BENCH_quality.jsonl ledger pins: one cell per strategy x protocol at 8
// shards / 2000 tps on the harness's default workload, canonical order
// (protocol outer, strategy inner). The gate compares deterministic
// quality metrics (steady_tps, cross_fraction), not wall clocks, so the
// cells cache and run in parallel; the gate's second run is the
// resumed-from-cache proof.
func QualitySweep(p Params) experiment.Sweep {
	var cells []experiment.Cell
	for _, proto := range []string{"omniledger", "rapidchain"} {
		for _, s := range placers(p) {
			cells = append(cells, experiment.Cell{
				Kind:     experiment.KindSim,
				Strategy: s,
				Protocol: proto,
				Shards:   8,
				Rate:     2000,
			})
		}
	}
	return experiment.Sweep{
		Name:        "quality",
		Description: "strategy x protocol cells for the placement-quality gate and its BENCH_quality.jsonl ledger (make quality-gate)",
		Cells:       cells,
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
