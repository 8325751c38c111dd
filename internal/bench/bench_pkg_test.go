package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"optchain/experiment"
)

func quickHarness() *Harness {
	return NewHarness(Params{Quick: true, N: 4000, TableN: 20000, Seed: 1})
}

func TestNamesCoversAll(t *testing.T) {
	names := Names()
	if len(names) != len(Experiments) {
		t.Fatalf("Names() returned %d of %d", len(names), len(Experiments))
	}
	for _, want := range []string{"table1", "table2", "fig2", "fig3", "fig11", "ablation-weight"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("experiment %q missing", want)
		}
	}
}

func TestSweepsRegistered(t *testing.T) {
	for _, want := range []string{"grid", "peak", "saturation", "scenarios", "smoke", "table1", "table2", "alpha", "weight", "backend", "l2s"} {
		if !experiment.HasSweep(want) {
			t.Fatalf("sweep %q not registered (have %v)", want, experiment.SweepNames())
		}
		if experiment.SweepDescription(want) == "" {
			t.Fatalf("sweep %q has no description", want)
		}
	}
}

func TestScenariosQuick(t *testing.T) {
	h := NewHarness(Params{Quick: true, N: 2000, Seed: 1, Workloads: []string{"hotspot", "adversarial"}})
	var buf bytes.Buffer
	if err := Scenarios(context.Background(), h, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"hotspot", "adversarial", "OptChain", "OmniLedger"} {
		if !strings.Contains(out, want) {
			t.Fatalf("scenarios report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Metis") {
		t.Fatalf("scenarios report includes Metis, which cannot stream:\n%s", out)
	}
}

func TestScenarioCellsCacheAndMetisMaterializes(t *testing.T) {
	h := NewHarness(Params{Quick: true, N: 1500, Seed: 1})
	cell := experiment.Cell{
		Kind: experiment.KindSim, Strategy: "OptChain", Shards: 4, Rate: 1000,
		Workload: "burst", Streamed: true,
	}
	a, err := h.Cell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Streamed {
		t.Fatalf("streamed scenario cell reported Streamed=false: %+v", a)
	}
	if a.WallSeconds <= 0 {
		t.Fatalf("first execution has no wall clock: %+v", a)
	}
	b, err := h.Cell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if b.WallSeconds != 0 || b.SteadyTPS != a.SteadyTPS {
		t.Fatalf("second Cell call did not hit the cache: %+v vs %+v", a, b)
	}
	// A Metis cell inside a streaming sweep materializes — and says so.
	m, err := h.Cell(context.Background(), experiment.Cell{
		Kind: experiment.KindSim, Strategy: "Metis", Shards: 4, Rate: 1000, Streamed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Streamed {
		t.Fatalf("Metis cell claims to have streamed: %+v", m)
	}
}

func TestBaselineHasScenarioSection(t *testing.T) {
	h := NewHarness(Params{Quick: true, N: 1200, Seed: 1, Workloads: []string{"hotspot"}})
	b, err := CollectBaseline(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if b.Schema != BaselineSchema || !strings.HasSuffix(b.Schema, "/v6") {
		t.Fatalf("schema = %q", b.Schema)
	}
	if b.Reporter != experiment.BaselineReporterName {
		t.Fatalf("reporter provenance = %q", b.Reporter)
	}
	if len(b.Scenarios) != 2 {
		t.Fatalf("scenario cells = %d, want OptChain+OmniLedger on hotspot", len(b.Scenarios))
	}
	for _, c := range b.Scenarios {
		if c.Workload != "hotspot" || c.Committed == 0 || c.SteadyTPS <= 0 {
			t.Fatalf("degenerate scenario cell: %+v", c)
		}
		if c.CellID == "" || !strings.Contains(c.CellID, "streamed") {
			t.Fatalf("scenario cell missing stable cell id: %+v", c)
		}
	}
	// v3: every Sim-section row records the workload spec driving it.
	// v4: it additionally carries the stable cell ID.
	for _, c := range b.Sim {
		if c.Workload != "bitcoin" {
			t.Fatalf("sim cell missing workload spec: %+v", c)
		}
		if c.CellID == "" {
			t.Fatalf("sim cell missing cell id: %+v", c)
		}
		if c.WallSeconds <= 0 {
			t.Fatalf("uncached baseline cell has no wall clock: %+v", c)
		}
	}
}

func TestTableIQuick(t *testing.T) {
	h := quickHarness()
	var buf bytes.Buffer
	if err := TableI(context.Background(), h, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "Metis", "Greedy", "OmniLedger", "T2S"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Two shard-count rows in quick mode.
	if strings.Count(out, "\n") < 5 {
		t.Fatalf("too few rows:\n%s", out)
	}
}

func TestTableIIQuick(t *testing.T) {
	h := quickHarness()
	var buf bytes.Buffer
	if err := TableII(context.Background(), h, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "warm start") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestFig2Quick(t *testing.T) {
	h := quickHarness()
	var buf bytes.Buffer
	if err := Fig2(context.Background(), h, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"avg-degree", "P(in<3)", "prefix"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestSimFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	h := quickHarness()
	for _, name := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		var buf bytes.Buffer
		if err := Experiments[name](context.Background(), h, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	h := quickHarness()
	for _, name := range []string{"ablation-l2s", "ablation-alpha", "ablation-weight", "ablation-backend"} {
		var buf bytes.Buffer
		if err := Experiments[name](context.Background(), h, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), "Ablation") {
			t.Fatalf("%s output:\n%s", name, buf.String())
		}
	}
}

func TestRunCacheReusesResults(t *testing.T) {
	h := quickHarness()
	a, err := h.row(context.Background(), "OmniLedger", 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.row(context.Background(), "OmniLedger", 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if b.WallSeconds != 0 || a.Result != b.Result {
		t.Fatal("cache miss for identical cell")
	}
}

func TestDatasetCacheKeyedByLength(t *testing.T) {
	h := quickHarness()
	a, err := h.Dataset(1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Dataset(1000)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("dataset cache miss")
	}
	c, err := h.Dataset(2000)
	if err != nil {
		t.Fatal(err)
	}
	if c == a || c.Len() != 2000 {
		t.Fatal("wrong dataset for different length")
	}
}

// TestWorkloadThreadsThroughSweeps: Params.Workload swaps the stream under
// every experiment — the materialized dataset is the selected scenario and
// the reports say so.
func TestWorkloadThreadsThroughSweeps(t *testing.T) {
	const spec = "mix:bitcoin=0.7,hotspot=0.3"
	h := NewHarness(Params{
		Quick:      true,
		N:          1500,
		TableN:     4000,
		Seed:       1,
		Workload:   spec,
		Strategies: []string{"OptChain", "OmniLedger"},
	})
	d, err := h.Dataset(1500)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1500 {
		t.Fatalf("materialized workload length = %d", d.Len())
	}
	// The mix stream must differ from the calibrated default generator.
	plain := NewHarness(Params{Quick: true, N: 1500, Seed: 1})
	pd, err := plain.Dataset(1500)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < d.Len() && same; i++ {
		same = d.NumInputs(i) == pd.NumInputs(i) && d.NumOutputs(i) == pd.NumOutputs(i)
	}
	if same {
		t.Fatal("workload dataset is identical to the calibrated default")
	}
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	for _, name := range []string{"fig5", "table1", "ablation-alpha"} {
		var buf bytes.Buffer
		if err := Experiments[name](context.Background(), h, &buf); err != nil {
			t.Fatalf("%s with workload: %v", name, err)
		}
		if !strings.Contains(buf.String(), "workload="+spec) {
			t.Fatalf("%s report does not name the workload:\n%s", name, buf.String())
		}
	}
}

// TestStreamingGridSweep: the acceptance scenario — a `mix:`-modulated
// fig5-style peak sweep runs end-to-end streamed, without materializing
// the workload, and its rows say they streamed.
func TestStreamingGridSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	h := NewHarness(Params{
		Quick:      true,
		N:          1500,
		Seed:       1,
		Workload:   "mix:burst=0.5,bitcoin=0.5",
		Streaming:  true,
		Strategies: []string{"OptChain", "OmniLedger"},
	})
	rows, err := h.Collect(context.Background(), PeakSweep(h.Params()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if !row.Streamed {
			t.Fatalf("streaming sweep produced materialized row: %+v", row)
		}
		if row.Committed == 0 {
			t.Fatalf("degenerate streamed row: %+v", row)
		}
		if row.Workload != "mix:burst=0.5,bitcoin=0.5" {
			t.Fatalf("row does not name the workload spec: %+v", row)
		}
	}
	// Fig5 renders from the same streamed cells.
	var buf bytes.Buffer
	if err := Fig5(context.Background(), h, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig. 5") {
		t.Fatalf("fig5 output:\n%s", buf.String())
	}
}
