package bench

import (
	"context"
	"io"
	"testing"

	"optchain/experiment"
	"optchain/internal/core"
	"optchain/internal/des"
	"optchain/internal/placement"
	"optchain/internal/txgraph"
)

// Baseline re-exports the machine-readable performance record (see
// experiment.Baseline; the writer is the experiment package's "baseline"
// reporter at schema v4).
type Baseline = experiment.Baseline

// BaselineItem is one micro-benchmark entry (see experiment.BaselineItem).
type BaselineItem = experiment.BaselineItem

// BaselineSim is one end-to-end simulation cell (see experiment.BaselineSim).
type BaselineSim = experiment.BaselineSim

// BaselineSchema is the current BENCH_baseline.json schema tag.
const BaselineSchema = experiment.BaselineSchema

// baselinePlaceBench replays the dataset through a fresh placer per
// iteration, reporting per-transaction cost.
func baselinePlaceBench(name string, d datasetLike, mk func() placement.Placer) BaselineItem {
	n := d.Len()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := mk()
			var buf []txgraph.Node
			b.StartTimer()
			for j := 0; j < n; j++ {
				buf = d.InputTxNodes(j, buf)
				p.Place(txgraph.Node(j), buf)
			}
		}
	})
	ops := float64(r.N) * float64(n)
	ns := float64(r.T.Nanoseconds()) / ops
	item := BaselineItem{
		Name:        name,
		Unit:        "tx",
		NsPerOp:     ns,
		AllocsPerOp: float64(r.MemAllocs) / ops,
		BytesPerOp:  float64(r.MemBytes) / ops,
	}
	if ns > 0 {
		item.OpsPerSec = 1e9 / ns
	}
	return item
}

// datasetLike is the slice of the dataset API the placement micro-benches
// need (keeps baselinePlaceBench testable without a full dataset).
type datasetLike interface {
	Len() int
	InputTxNodes(i int, buf []txgraph.Node) []txgraph.Node
	NumOutputs(i int) int
}

// baselineDESBench measures the event kernel's schedule+fire cost per
// event via a self-rescheduling tick chain.
func baselineDESBench() BaselineItem {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		s := des.New()
		count := 0
		var loop func(*des.Simulator)
		loop = func(sim *des.Simulator) {
			count++
			if count < b.N {
				sim.Schedule(1, "tick", loop)
			}
		}
		s.Schedule(0, "tick", loop)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	ops := float64(r.N)
	ns := float64(r.T.Nanoseconds()) / ops
	item := BaselineItem{
		Name:        "des_schedule_fire",
		Unit:        "event",
		NsPerOp:     ns,
		AllocsPerOp: float64(r.MemAllocs) / ops,
		BytesPerOp:  float64(r.MemBytes) / ops,
	}
	if ns > 0 {
		item.OpsPerSec = 1e9 / ns
	}
	return item
}

// baselineMicroN caps the stream length the placement micro-benches replay
// (they re-run the whole stream per testing.B iteration).
const baselineMicroN = 50_000

// collectMicro measures the hot-path micro-benchmarks.
func collectMicro(h *Harness) ([]BaselineItem, error) {
	n := h.Params().N
	if n > baselineMicroN {
		n = baselineMicroN
	}
	d, err := h.Dataset(n)
	if err != nil {
		return nil, err
	}
	outCounts := func(v txgraph.Node) int { return d.NumOutputs(int(v)) }
	tel := core.StaticTelemetry{Comm: make([]float64, 16), Verify: make([]float64, 16)}
	for i := range tel.Comm {
		tel.Comm[i], tel.Verify[i] = 10, 0.5
	}
	return []BaselineItem{
		baselinePlaceBench("t2s_prepare_commit", d, func() placement.Placer {
			p := core.NewT2SPlacer(16, d.Len(), core.DefaultAlpha, core.DefaultCapacityEps)
			p.Scores().SetOutCounts(outCounts)
			return p
		}),
		baselinePlaceBench("optchain_place", d, func() placement.Placer {
			p := core.NewOptChain(core.OptChainConfig{K: 16, N: d.Len(), Telemetry: tel})
			p.Scores().SetOutCounts(outCounts)
			return p
		}),
		baselinePlaceBench("greedy_place", d, func() placement.Placer {
			return placement.NewGreedy(16, d.Len(), core.DefaultCapacityEps)
		}),
		baselinePlaceBench("random_place", d, func() placement.Placer {
			return placement.NewRandom(16, d.Len())
		}),
		baselineDESBench(),
	}, nil
}

// BaselineSimSweep is the Sim section of the baseline record: one quick
// end-to-end cell per strategy × protocol, uncached so the wall clock
// measures a real run. Cells run in canonical order (protocol outer,
// strategy inner), materialized on the harness's default workload.
func BaselineSimSweep(p Params) experiment.Sweep {
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
		Name:        "baseline-sim",
		Description: "baseline Sim section: strategy x protocol at 8 shards / 2000 tps, uncached",
		Cells:       cells,
		Uncached:    true,
		Serial:      true,
	}
}

// QualitySweep is the cell set `make quality-gate` runs: the same strategy
// × protocol cells as the baseline Sim section — so its rows join the
// committed BENCH_baseline.json quality columns on cell ID — but cacheable
// and parallel, because the gate compares deterministic quality metrics
// (steady_tps, cross_fraction), not wall clocks, and its second run is the
// resumed-from-cache proof.
func QualitySweep(p Params) experiment.Sweep {
	return experiment.Sweep{
		Name:        "quality",
		Description: "baseline-joinable strategy x protocol cells for the placement-quality gate (make quality-gate)",
		Cells:       BaselineSimSweep(p).Cells,
	}
}

// BaselineScenarioSweep is the Scenarios section: OptChain vs
// OmniLedger-random on every workload scenario, streamed (no dataset
// materialization), uncached for honest wall clocks.
func BaselineScenarioSweep(p Params) experiment.Sweep {
	var cells []experiment.Cell
	for _, name := range scenarioNames(p) {
		for _, s := range []string{"OptChain", "OmniLedger"} {
			cells = append(cells, experiment.Cell{
				Kind:     experiment.KindSim,
				Strategy: s,
				Protocol: "omniledger",
				Shards:   8,
				Rate:     2000,
				Workload: name,
				Streamed: true,
			})
		}
	}
	return experiment.Sweep{
		Name:        "baseline-scenarios",
		Description: "baseline Scenarios section: OptChain vs OmniLedger per streamed scenario, uncached",
		Cells:       cells,
		Uncached:    true,
		Serial:      true,
	}
}

// collectBaselineInto measures the micro benches and streams the two
// baseline sweeps through the given reporter. Both sweeps are Serial and
// Uncached: cells run one at a time so per-cell wall-clock rates are not
// distorted by contention, and every cell executes for real even when the
// grid sweeps already cached an identical one.
func collectBaselineInto(ctx context.Context, h *Harness, rep *experiment.BaselineReporter) error {
	micro, err := collectMicro(h)
	if err != nil {
		return err
	}
	rep.SetMicro(micro)
	simSweep := BaselineSimSweep(h.Params())
	if err := rep.Begin(simSweep, h.Params()); err != nil {
		return err
	}
	for _, sweep := range []experiment.Sweep{simSweep, BaselineScenarioSweep(h.Params())} {
		for row, err := range h.Stream(ctx, sweep) {
			if err != nil {
				return err
			}
			if err := rep.Row(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// CollectBaseline measures the hot-path micro-benchmarks and one quick
// end-to-end simulation per strategy × protocol plus the per-scenario
// section, returning the accumulated record without writing it.
func CollectBaseline(ctx context.Context, h *Harness) (*Baseline, error) {
	rep := experiment.NewBaselineReporter(io.Discard)
	if err := collectBaselineInto(ctx, h, rep); err != nil {
		return nil, err
	}
	return rep.Baseline(), nil
}

// WriteBaselineJSON measures (see CollectBaseline) and writes the indented
// JSON report, stamped with the current UTC time, through the experiment
// package's baseline reporter.
func WriteBaselineJSON(ctx context.Context, h *Harness, w io.Writer) error {
	rep := experiment.NewBaselineReporter(w)
	if err := collectBaselineInto(ctx, h, rep); err != nil {
		return err
	}
	return rep.End()
}
