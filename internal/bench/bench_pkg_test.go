package bench

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"optchain/experiment"
	"optchain/internal/metrics"
	"optchain/internal/sim"
)

func quickRunner() *experiment.Runner {
	return experiment.NewRunner(Params{Quick: true, N: 4000, TableN: 20000, Seed: 1})
}

func TestSweepsRegistered(t *testing.T) {
	for _, want := range []string{"grid", "peak", "saturation", "scenarios", "smoke", "table1", "table2", "alpha", "weight", "backend", "l2s"} {
		if !slices.Contains(experiment.SweepNames(), want) {
			t.Fatalf("sweep %q not registered (have %v)", want, experiment.SweepNames())
		}
		if experiment.SweepDescription(want) == "" {
			t.Fatalf("sweep %q has no description", want)
		}
	}
}

// TestPaperSweepsQuick: every registered sweep builds at -quick scale and
// yields rows, each carrying its sweep name and the metrics of its kind.
func TestPaperSweepsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweeps in -short mode")
	}
	r := quickRunner()
	for _, name := range experiment.SweepNames() {
		s, err := experiment.BuildSweep(name, r.Params())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := r.Collect(context.Background(), s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		for _, row := range rows {
			if row.Sweep != name {
				t.Fatalf("%s: row %s names sweep %q", name, row.ID, row.Sweep)
			}
			if row.Kind == experiment.KindSim && (row.Committed == 0 || row.Result == nil) {
				t.Fatalf("%s: degenerate sim row %+v", name, row)
			}
		}
	}
}

func TestScenariosQuick(t *testing.T) {
	r := experiment.NewRunner(Params{Quick: true, N: 2000, Seed: 1, Workloads: []string{"hotspot", "adversarial"}})
	s, err := ScenariosSweep(r.Params())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := r.Collect(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	var workloads, strategies []string
	for _, row := range rows {
		if strings.EqualFold(row.Strategy, "Metis") {
			t.Fatalf("scenarios sweep includes Metis, which cannot stream: %+v", row)
		}
		if !slices.Contains(workloads, row.Workload) {
			workloads = append(workloads, row.Workload)
		}
		if !slices.Contains(strategies, row.Strategy) {
			strategies = append(strategies, row.Strategy)
		}
	}
	if !slices.Equal(workloads, []string{"hotspot", "adversarial"}) {
		t.Fatalf("scenario rows name workloads %v", workloads)
	}
	for _, want := range []string{"OptChain", "OmniLedger"} {
		if !slices.Contains(strategies, want) {
			t.Fatalf("scenario rows lack %s (have %v)", want, strategies)
		}
	}
}

// TestScenariosRefuseMetisOnly: a strategy set with no online placer is
// refused when the sweep is built, naming why, rather than left to an
// empty strategy axis that would fall back to the default set.
func TestScenariosRefuseMetisOnly(t *testing.T) {
	_, err := experiment.BuildSweep("scenarios", Params{Quick: true, Strategies: []string{"Metis"}})
	if !errors.Is(err, experiment.ErrBadSweep) || !strings.Contains(err.Error(), "online placer") {
		t.Fatalf("err = %v, want ErrBadSweep naming the missing online placer", err)
	}
}

func TestScenarioCellsCacheAndMetisMaterializes(t *testing.T) {
	r := experiment.NewRunner(Params{Quick: true, N: 1500, Seed: 1})
	cell := experiment.Cell{
		Kind: experiment.KindSim, Strategy: "OptChain", Shards: 4, Rate: 1000,
		Workload: "burst",
	}
	a, err := r.Cell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if a.WallSeconds <= 0 {
		t.Fatalf("first execution has no wall clock: %+v", a)
	}
	b, err := r.Cell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if b.WallSeconds != 0 || b.SteadyTPS != a.SteadyTPS {
		t.Fatalf("second Cell call did not hit the cache: %+v vs %+v", a, b)
	}
	// A Metis cell materializes the stream for its offline partition.
	m, err := r.Cell(context.Background(), experiment.Cell{
		Kind: experiment.KindSim, Strategy: "Metis", Shards: 4, Rate: 1000, Workload: "burst",
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Committed == 0 || m.Workload != "burst" {
		t.Fatalf("degenerate Metis row: %+v", m)
	}
}

func TestRunCacheReusesResults(t *testing.T) {
	r := quickRunner()
	cell := experiment.Cell{Kind: experiment.KindSim, Strategy: "OmniLedger", Shards: 4, Rate: 1000}
	a, err := r.Cell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Cell(context.Background(), cell)
	if err != nil {
		t.Fatal(err)
	}
	if b.WallSeconds != 0 || a.Result != b.Result {
		t.Fatal("cache miss for identical cell")
	}
}

// TestWorkloadThreadsThroughSweeps: Params.Workload swaps the stream under
// every sweep, and every row names it. (That the materialized stream is the
// selected scenario is experiment's TestDatasetIsTheWorkload.)
func TestWorkloadThreadsThroughSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	const spec = "mix:bitcoin=0.7,hotspot=0.3"
	r := experiment.NewRunner(Params{
		Quick:      true,
		N:          1500,
		TableN:     4000,
		Seed:       1,
		Workload:   spec,
		Strategies: []string{"OptChain", "OmniLedger"},
	})
	for _, build := range []func(Params) experiment.Sweep{PeakSweep, TableISweep, AlphaSweep} {
		s := build(r.Params())
		rows, err := r.Collect(context.Background(), s)
		if err != nil {
			t.Fatalf("%s with workload: %v", s.Name, err)
		}
		for _, row := range rows {
			if row.Workload != spec {
				t.Fatalf("%s row %s ran workload %q, want %q", s.Name, row.ID, row.Workload, spec)
			}
		}
	}
}

// TestStreamingGridSweep: the acceptance scenario — a `mix:`-modulated
// peak sweep runs end-to-end with the workload streamed, and its rows name
// the spec.
func TestStreamingGridSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep in -short mode")
	}
	r := experiment.NewRunner(Params{
		Quick:      true,
		N:          1500,
		Seed:       1,
		Workload:   "mix:burst=0.5,bitcoin=0.5",
		Strategies: []string{"OptChain", "OmniLedger"},
	})
	rows, err := r.Collect(context.Background(), PeakSweep(r.Params()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Committed == 0 {
			t.Fatalf("degenerate streamed row: %+v", row)
		}
		if row.Workload != "mix:burst=0.5,bitcoin=0.5" {
			t.Fatalf("row does not name the workload spec: %+v", row)
		}
	}
}

// TestClaimsNameSweepCells: every claim of the fidelity table names exactly
// one cell of its registered sweep at full scale (a lead, one cell for each
// side) and a metric that rows of the cell's kind carry, so the table
// cannot drift from the sweeps it reads.
func TestClaimsNameSweepCells(t *testing.T) {
	columns := map[string]bool{}
	for _, f := range (experiment.Row{}).Fields() {
		columns[f.Name] = true
	}
	ids := map[string]bool{}
	for _, c := range claims {
		if ids[c.id] {
			t.Errorf("claim id %s repeats", c.id)
		}
		ids[c.id] = true
		if _, ok := claimMetrics[c.metric]; !ok || (c.metric != "within_10s" && !columns[c.metric]) {
			t.Errorf("%s: metric %q is not a row column", c.id, c.metric)
		}
		s, err := experiment.BuildSweep(c.sweep, Params{})
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if s.Name != c.sweep {
			t.Errorf("%s: sweep %q names its rows %q", c.id, c.sweep, s.Name)
		}
		cells, err := s.Expand(Params{})
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		sides := []string{c.strategy}
		if c.over != "" {
			sides = append(sides, c.over)
		}
		for _, strategy := range sides {
			var match []experiment.Cell
			for _, cell := range cells {
				if strings.EqualFold(cell.Strategy, strategy) && cell.Shards == c.shards && cell.Rate == c.rate {
					match = append(match, cell)
				}
			}
			if len(match) != 1 {
				t.Errorf("%s: %d cells of sweep %s are %s k=%d r=%g, want 1", c.id, len(match), c.sweep, strategy, c.shards, c.rate)
				continue
			}
			if match[0].Kind == experiment.KindPlacement && c.metric != "cross_fraction" {
				t.Errorf("%s: placement rows do not carry %s", c.id, c.metric)
			}
		}
	}
}

// TestFidelityReporter pins the reporter on hand-built rows: a claim prints
// paper, ours and ours/paper; a lead is the relative excess of one cell
// over the other; a claim whose cell (or either side of a lead) is not in
// the run is not printed; a within-10 s share on a row without its
// simulation record (a cache-served row) prints "-".
func TestFidelityReporter(t *testing.T) {
	within := &metrics.LatencyRecorder{}
	for _, s := range []time.Duration{5, 8, 12, 20} {
		within.Observe(s * time.Second)
	}
	peak := func(strategy string, tps float64, res *sim.Result) experiment.Row {
		return experiment.Row{Sweep: "peak", Kind: experiment.KindSim, Strategy: strategy, Shards: 16, Rate: 6000,
			SteadyTPS: tps, PeakQueue: 88_000, MaxLatencySec: 50.45, Result: res}
	}
	rows := []experiment.Row{
		{Sweep: "table1", Kind: experiment.KindPlacement, Strategy: "Metis", Shards: 16, CrossFraction: 0.094},
		{Sweep: "table1", Kind: experiment.KindPlacement, Strategy: "Greedy", Shards: 4, CrossFraction: 0.2},
		peak("OptChain", 1200, nil),
		peak("OmniLedger", 1000, nil),
		peak("Metis", 900, &sim.Result{Latencies: within}),
	}
	var buf bytes.Buffer
	rep, err := experiment.NewReporter("fidelity", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Begin(experiment.Sweep{Name: "peak"}, Params{}); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := rep.Row(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := rep.End(); err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) > 3 && strings.Contains(f[0], "/") {
			got[f[0]] = f[len(f)-3:]
		}
	}
	want := map[string][]string{
		"table1/Metis":         {"0.047", "0.094", "2.000"},
		"fig4/over-OmniLedger": {"0.344", "0.2", "0.581"},
		"fig4/over-Metis":      {"0.305", "0.333333", "1.093"},
		"fig6/OptChain":        {"44000", "88000", "2.000"},
		"fig6/OmniLedger":      {"499000", "88000", "0.176"},
		"fig6/Metis":           {"507000", "88000", "0.174"},
		"fig9/OptChain":        {"100.9", "50.45", "0.500"},
		"fig9/OmniLedger":      {"1309.5", "50.45", "0.039"},
		"fig9/Metis":           {"1345.9", "50.45", "0.037"},
		"fig10/OptChain":       {"0.7", "-", "-"},
		"fig10/OmniLedger":     {"0.079", "-", "-"},
		"fig10/Metis":          {"0.024", "0.5", "20.833"},
	}
	for id, w := range want {
		if !slices.Equal(got[id], w) {
			t.Errorf("%s: paper/ours/ratio %v, want %v", id, got[id], w)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("%s printed, but its cell is not in the run", id)
		}
	}
	if t.Failed() {
		t.Logf("output:\n%s", buf.String())
	}

	buf.Reset()
	rep, err = experiment.NewReporter("fidelity", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Begin(experiment.Sweep{Name: "smoke"}, Params{}); err != nil {
		t.Fatal(err)
	}
	if err := rep.End(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no claim names a cell of this sweep") {
		t.Fatalf("a run without claims says nothing:\n%s", buf.String())
	}
	if _, err := experiment.NewReporter("fidelity:header=off", &buf); err == nil {
		t.Fatal("fidelity accepted an option")
	}
}
