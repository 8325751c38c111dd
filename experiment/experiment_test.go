package experiment_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"optchain"
	"optchain/experiment"
	"optchain/internal/placement"
	"optchain/internal/registry"
	"optchain/internal/sim"
	"optchain/internal/txgraph"
	"optchain/internal/workload"
)

// quickParams keeps every test sweep small and fast.
func quickParams() experiment.Params {
	return experiment.Params{Quick: true, N: 1200, TableN: 3000, Seed: 1, Validators: 4}
}

// tinySweep is a 2x2 sim sweep.
func tinySweep() experiment.Sweep {
	return experiment.Sweep{
		Name:       "tiny",
		Strategies: []string{"OptChain", "OmniLedger"},
		Shards:     []int{2, 4},
		Rates:      []float64{800},
	}
}

func TestStreamCanonicalOrderAndIdentity(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	rows, err := r.Collect(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	wantOrder := []struct {
		strategy string
		shards   int
	}{
		{"OptChain", 2}, {"OptChain", 4}, {"OmniLedger", 2}, {"OmniLedger", 4},
	}
	seen := map[string]bool{}
	for i, row := range rows {
		if row.Index != i || row.Sweep != "tiny" {
			t.Fatalf("row %d identity: %+v", i, row)
		}
		if row.Strategy != wantOrder[i].strategy || row.Shards != wantOrder[i].shards {
			t.Fatalf("row %d out of canonical order: %+v", i, row)
		}
		if row.ID == "" || seen[row.ID] {
			t.Fatalf("row %d id %q empty or duplicated", i, row.ID)
		}
		seen[row.ID] = true
		if row.Committed == 0 || row.Result == nil {
			t.Fatalf("row %d degenerate: %+v", i, row)
		}
	}
}

// TestNameSpellingKeepsCellIdentity: names resolve case-insensitively, so
// a sweep spelling them otherwise must run the same cells under the same
// IDs and rows as the registered spelling, or a -diff between the two
// joins nothing and the row cache never hits.
func TestNameSpellingKeepsCellIdentity(t *testing.T) {
	canon, err := experiment.NewRunner(quickParams()).Collect(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	p := quickParams()
	p.Protocol = "OmniLedger"
	s := tinySweep()
	s.Strategies = []string{"optchain", " OMNILEDGER "}
	spelled, err := experiment.NewRunner(p).Collect(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(spelled) != len(canon) {
		t.Fatalf("%d rows, want %d", len(spelled), len(canon))
	}
	for i := range canon {
		a, b := canon[i], spelled[i]
		a.WallSeconds, b.WallSeconds, a.Result, b.Result = 0, 0, nil, nil
		if a != b {
			t.Errorf("row %d under other spellings:\n%+v\nwant\n%+v", i, b, a)
		}
	}
	if id := spelled[0].ID; !strings.HasPrefix(id, "sim:OptChain/omniledger/k2/") {
		t.Errorf("cell ID %q, want the registered spellings", id)
	}
}

// TestDeterministicAcrossScheduling: a parallel sweep and a serial sweep of
// the same cells produce identical rows — row identity and values are
// independent of worker scheduling.
func TestDeterministicAcrossScheduling(t *testing.T) {
	par := experiment.NewRunner(quickParams())
	parRows, err := par.Collect(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	p := quickParams()
	p.Workers = 1
	ser := experiment.NewRunner(p)
	serRows, err := ser.Collect(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	for i := range parRows {
		a, b := parRows[i], serRows[i]
		if a.ID != b.ID || a.SteadyTPS != b.SteadyTPS || a.CrossFraction != b.CrossFraction ||
			a.Committed != b.Committed || a.AvgLatencySec != b.AvgLatencySec {
			t.Fatalf("row %d differs across scheduling:\npar: %+v\nser: %+v", i, a, b)
		}
	}
}

func TestSweepValidation(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	for name, s := range map[string]experiment.Sweep{
		"no name":          {Strategies: []string{"OptChain"}, Shards: []int{2}, Rates: []float64{100}},
		"no shards":        {Name: "x", Strategies: []string{"OptChain"}, Rates: []float64{100}},
		"no rates":         {Name: "x", Strategies: []string{"OptChain"}, Shards: []int{2}},
		"unknown strategy": {Name: "x", Strategies: []string{"Nope"}, Shards: []int{2}, Rates: []float64{100}},
		"unknown protocol": {Name: "x", Strategies: []string{"OptChain"}, Protocols: []string{"nope"}, Shards: []int{2}, Rates: []float64{100}},
		"bad workload":     {Name: "x", Strategies: []string{"OptChain"}, Shards: []int{2}, Rates: []float64{100}, Workloads: []string{"nope:1"}},
		"placement vocab":  {Name: "x", Kind: experiment.KindPlacement, Strategies: []string{"OptChain"}, Shards: []int{2}},
		"cells + axis": {Name: "x", Shards: []int{2},
			Cells: []experiment.Cell{{Strategy: "OptChain", Shards: 2, Rate: 100}}},
		"cells + cell defaults": {Name: "x", Txs: 100,
			Cells: []experiment.Cell{{Strategy: "OptChain", Shards: 2, Rate: 100}}},
		"warm on sim cells": {Name: "x", Strategies: []string{"OptChain"},
			Shards: []int{2}, Rates: []float64{100}, Warm: 50},
		"l2s weight on placement cells": {Name: "x", Kind: experiment.KindPlacement,
			Strategies: []string{"T2S"}, Shards: []int{2}, L2SWeights: []float64{0.1}},
	} {
		if _, err := r.Collect(context.Background(), s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestStreamCancellationMidSweep: cancelling the context mid-sweep stops
// promptly, leaks no goroutines, and the rows delivered before the cancel
// are flushed through the reporter (partial output remains valid).
func TestStreamCancellationMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()
	p := quickParams()
	p.N = 4000
	p.Workers = 2
	r := experiment.NewRunner(p)
	// Enough cells that the sweep cannot finish before the cancel.
	s := experiment.Sweep{
		Name:       "cancel",
		Strategies: []string{"OptChain", "OmniLedger", "Greedy", "T2S"},
		Shards:     []int{2, 3, 4, 5},
		Rates:      []float64{700, 900},
		Uncached:   true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	var rows []experiment.Row
	var sawErr error
	for row, err := range r.Stream(ctx, s) {
		if err != nil {
			sawErr = err
			break
		}
		rows = append(rows, row)
		if len(rows) == 2 {
			cancel()
		}
	}
	cancel()
	if !errors.Is(sawErr, context.Canceled) {
		t.Fatalf("err = %v (rows %d)", sawErr, len(rows))
	}
	if len(rows) < 2 || len(rows) >= 32 {
		t.Fatalf("rows before cancel = %d", len(rows))
	}
	assertNoLeak(t, before)
}

// assertNoLeak fails the test if the goroutine count does not settle back
// to before. The iterator waits for in-flight workers before returning, so
// the count settles to the baseline (+1 slack for unrelated runtime
// goroutines; a worker-pool leak would add Workers=2 or more).
func assertNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+1 {
		// Dump every goroutine's stack so a leak names the stuck worker
		// instead of just counting it.
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		t.Fatalf("goroutines leaked: %d -> %d\n%s", before, g, buf)
	}
}

// panicSentinel is the value panickingPlacer panics with.
type panicSentinel struct{}

// panickingPlacer panics on its first decision.
type panickingPlacer struct{ a *optchain.Assignment }

func (p *panickingPlacer) Place(txgraph.Node, []txgraph.Node) int { panic(panicSentinel{}) }
func (p *panickingPlacer) Assignment() *optchain.Assignment       { return p.a }
func (p *panickingPlacer) Name() string                           { return "test-panics" }

var registerPanicking = sync.OnceValue(func() error {
	return optchain.RegisterStrategy("test-panics", func(ctx optchain.StrategyContext) (optchain.Placer, error) {
		return &panickingPlacer{a: optchain.NewAssignment(ctx.K, ctx.N)}, nil
	})
})

// TestStreamReraisesCellPanic: a cell that panics on a worker goroutine
// must not kill the process from there. Stream recovers it and re-raises
// it on the consuming goroutine, where the caller can recover it, and no
// worker outlives the call. The cell is a sim cell: the simulator calls
// the strategy directly, while placement cells take only the offline
// vocabulary.
func TestStreamReraisesCellPanic(t *testing.T) {
	if err := registerPanicking(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	s := experiment.Sweep{
		Name:       "panics",
		Strategies: []string{"test-panics"},
		Shards:     []int{2},
		Rates:      []float64{800},
		Uncached:   true,
	}
	got := func() (p any) {
		defer func() { p = recover() }()
		experiment.NewRunner(quickParams()).Collect(context.Background(), s)
		return nil
	}()
	if _, ok := got.(panicSentinel); !ok {
		t.Fatalf("recovered %v (%T), want the cell's panicSentinel", got, got)
	}
	assertNoLeak(t, before)
}

// TestStreamBreakStopsRemainingCells: breaking out of the row iteration
// must cancel the rest of the sweep — not silently execute every
// remaining cell while the iterator's cleanup waits for workers. We
// observe it through the cell cache: after an early break, a second pass
// over the same sweep must re-execute most cells. (The worker can race a
// few tiny cells ahead of the consumer's break — especially at
// GOMAXPROCS=1 — so the bound is a majority, not an exact count; without
// the cancel-before-wait ordering every cell completes.)
func TestStreamBreakStopsRemainingCells(t *testing.T) {
	p := quickParams()
	p.Workers = 1
	p.N = 4000 // heavy enough that the break lands within a cell or two
	r := experiment.NewRunner(p)
	s := experiment.Sweep{
		Name:       "break",
		Strategies: []string{"OptChain", "OmniLedger"},
		Shards:     []int{2, 3, 4, 5},
		Rates:      []float64{700, 900},
	}
	for _, err := range r.Stream(context.Background(), s) {
		if err != nil {
			t.Fatal(err)
		}
		break // consumer walks away after the first row
	}
	rows, err := r.Collect(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, row := range rows {
		if row.WallSeconds == 0 {
			cached++
		}
	}
	if cached > len(rows)/2 {
		t.Fatalf("%d of %d cells executed despite the early break", cached, len(rows))
	}
}

// TestReportFlushesPartialRowsOnCancel: Report must End (flush) the
// reporter even when the sweep is cancelled, so the JSONL file holds the
// completed rows.
func TestReportFlushesPartialRowsOnCancel(t *testing.T) {
	p := quickParams()
	p.N = 4000
	p.Workers = 1
	r := experiment.NewRunner(p)
	s := experiment.Sweep{
		Name:       "cancel-flush",
		Strategies: []string{"OptChain", "OmniLedger", "Greedy", "T2S"},
		Shards:     []int{2, 3, 4},
		Rates:      []float64{700},
		Uncached:   true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sb strings.Builder
	rep, err := experiment.NewReporter("jsonl", &sb)
	if err != nil {
		t.Fatal(err)
	}
	counting := &cancelAfter{Reporter: rep, n: 2, cancel: cancel}
	err = r.Report(ctx, s, counting)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Report err = %v", err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) < 2 || len(lines) >= 12 {
		t.Fatalf("flushed %d rows, want the pre-cancel partial set:\n%s", len(lines), sb.String())
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.Contains(l, `"id":"sim:`) {
			t.Fatalf("line %d is not a valid row: %q", i, l)
		}
	}
}

// cancelAfter cancels the sweep context after n rows have reached the
// reporter.
type cancelAfter struct {
	experiment.Reporter
	n      int
	seen   int
	cancel context.CancelFunc
}

func (c *cancelAfter) Row(r experiment.Row) error {
	if err := c.Reporter.Row(r); err != nil {
		return err
	}
	c.seen++
	if c.seen == c.n {
		c.cancel()
	}
	return nil
}

// TestStreamingSweepRuns: a sim cell under a non-default workload runs
// that spec, its row and ID name it, and the ID carries no stream suffix:
// every non-Metis sim cell streams. The deprecated Sweep.Streaming is
// inert, so setting it runs the same cell.
func TestStreamingSweepRuns(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	s := experiment.Sweep{
		Name:       "streamed",
		Strategies: []string{"OptChain"},
		Shards:     []int{2},
		Rates:      []float64{800},
		Workloads:  []string{"hotspot:exp=1.3"},
	}
	rows, err := r.Collect(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Workload != "hotspot:exp=1.3" || !strings.Contains(rows[0].ID, "/wl=hotspot:exp=1.3/") {
		t.Fatalf("row: %+v", rows[0])
	}
	if strings.Contains(rows[0].ID, "streamed") {
		t.Fatalf("cell id carries a stream suffix: %q", rows[0].ID)
	}
	s.Streaming = true
	again, err := r.Collect(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].ID != rows[0].ID || again[0].WallSeconds != 0 {
		t.Fatalf("Sweep.Streaming changed the cell: %q (wall %v), want the cached %q",
			again[0].ID, again[0].WallSeconds, rows[0].ID)
	}
}

// TestSimCellsStreamTheirWorkload: a sim cell runs its spec live, as
// optchain-sim does, so a burst's arrival spacing and an attacker's view of
// the placement reach the simulator. Each row equals a direct sim.Run over
// workload.New of the same spec, length, seed and shards. A replay of the
// materialized stream at nominal spacing loses both: burst latency and the
// adversarial mix's cross fraction move.
func TestSimCellsStreamTheirWorkload(t *testing.T) {
	p := quickParams()
	r := experiment.NewRunner(p)
	const k, rate = 4, 1000
	for _, spec := range []string{"burst", "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.15"} {
		row, err := r.Cell(context.Background(), experiment.Cell{
			Strategy: "OptChain", Shards: k, Rate: rate, Workload: spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.New(spec, workload.Params{N: p.N, Seed: p.Seed, Shards: k})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(sim.Config{
			Source: src, Txs: p.N, Shards: k, Validators: p.Validators, Rate: rate,
			Placer: "OptChain", Protocol: "omniledger", Seed: p.Seed,
		})
		workload.Close(src)
		if err != nil {
			t.Fatal(err)
		}
		if row.CrossFraction != want.CrossFraction || row.AvgLatencySec != want.AvgLatency ||
			row.P99Sec != want.P99 || row.SteadyTPS != want.SteadyTPS {
			t.Errorf("%s: cell cross %v avg %v p99 %v steady %v; streamed run cross %v avg %v p99 %v steady %v", spec,
				row.CrossFraction, row.AvgLatencySec, row.P99Sec, row.SteadyTPS,
				want.CrossFraction, want.AvgLatency, want.P99, want.SteadyTPS)
		}
	}
}

// TestMetisCellStreamsItsWorkload: a Metis cell takes only its offline
// partition from a materialization of its workload and streams the spec
// like every other sim cell, so under burst it sees the bursts. Its row is
// pinned (a replay of the materialized stream at nominal spacing read
// cross 0.1758, avg 2.6121 s, p99 5.2077 s, steady 1031.07 tx/s).
func TestMetisCellStreamsItsWorkload(t *testing.T) {
	row, err := experiment.NewRunner(quickParams()).Cell(context.Background(), experiment.Cell{
		Strategy: "Metis", Shards: 4, Rate: 1000, Workload: "burst",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := [...]float64{row.CrossFraction, row.AvgLatencySec, row.P99Sec, row.SteadyTPS}
	want := [...]float64{0.17583333333333334, 2.6246903505124988, 5.20767499032, 1093.3009064780015}
	if got != want {
		t.Fatalf("Metis burst cell (cross, avg, p99, steady) = %v, want %v", got, want)
	}
}

// TestShardAwareCellsMaterializeAtTheirShards: a Metis sim cell and a
// placement cell under adversarial at k=4 run the stream the workload
// generates for 4 shards (the adversary aims its inputs at the shards),
// not the default 16's: each equals a direct run over workload.New(spec,
// {N, Seed, Shards: 4}). The Metis cell's reference runs that stream
// blind, as its partition saw it: a simulator that fed the adversary the
// replayed placements would read cross 0.985 here instead of 0.199.
func TestShardAwareCellsMaterializeAtTheirShards(t *testing.T) {
	p := quickParams()
	r := experiment.NewRunner(p)
	const k, rate, spec = 4, 1000, "adversarial"
	n := p.TableN
	d, err := optchain.MaterializeWorkload(spec, optchain.WorkloadParams{N: n, Seed: p.Seed, Shards: k})
	if err != nil {
		t.Fatal(err)
	}

	row, err := r.Cell(context.Background(), experiment.Cell{Strategy: "Metis", Shards: k, Rate: rate, Workload: spec, Txs: n})
	if err != nil {
		t.Fatal(err)
	}
	part, err := registry.MetisPartition(d, k, p.Seed)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.New(spec, workload.Params{N: n, Seed: p.Seed, Shards: k})
	if err != nil {
		t.Fatal(err)
	}
	// The reference hides the source's Observer, so whatever the simulator
	// feeds back it runs the blind stream the partition was computed from.
	want, err := sim.Run(sim.Config{
		Source: struct{ workload.Source }{src}, MetisPart: part, Txs: n, Shards: k, Validators: p.Validators,
		Rate: rate, Placer: "Metis", Protocol: "omniledger", Seed: p.Seed, MaxSimTime: 20 * time.Minute,
	})
	workload.Close(src)
	if err != nil {
		t.Fatal(err)
	}
	if row.CrossFraction != want.CrossFraction || row.AvgLatencySec != want.AvgLatency ||
		row.P99Sec != want.P99 || row.SteadyTPS != want.SteadyTPS {
		t.Errorf("Metis cell cross %v avg %v p99 %v steady %v; a run over the 4-shard stream cross %v avg %v p99 %v steady %v",
			row.CrossFraction, row.AvgLatencySec, row.P99Sec, row.SteadyTPS,
			want.CrossFraction, want.AvgLatency, want.P99, want.SteadyTPS)
	}

	row, err = r.Cell(context.Background(), experiment.Cell{Kind: experiment.KindPlacement, Strategy: "T2S", Shards: k, Workload: spec})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := registry.NewStrategy("T2S", registry.StrategyContext{
		K: k, N: n, OutCounts: func(v txgraph.Node) int { return d.NumOutputs(int(v)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var cc placement.CrossCounter
	var buf []txgraph.Node
	for i := 0; i < n; i++ {
		buf = d.InputTxNodes(i, buf)
		cc.Observe(pl.Assignment(), buf, pl.Place(txgraph.Node(i), buf))
	}
	if row.Cross != cc.Cross || row.CrossFraction != cc.Fraction() {
		t.Errorf("T2S placement cell: %d cross (%v); a run over the 4-shard stream: %d (%v)", row.Cross, row.CrossFraction, cc.Cross, cc.Fraction())
	}
}

func TestPlacementSweep(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	s := experiment.Sweep{
		Name:       "tables",
		Kind:       experiment.KindPlacement,
		Strategies: []string{"Metis", "Greedy", "OmniLedger", "T2S"},
		Shards:     []int{4},
	}
	rows, err := r.Collect(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Kind != experiment.KindPlacement {
			t.Fatalf("kind = %q", row.Kind)
		}
		if row.CrossFraction <= 0 || row.CrossFraction > 1 {
			t.Fatalf("%s cross fraction = %v", row.Strategy, row.CrossFraction)
		}
		if row.Protocol != "" || row.Rate != 0 {
			t.Fatalf("placement row carries sim fields: %+v", row)
		}
	}
	// OmniLedger's hash placement must be (much) worse than T2S lineage
	// placement — sanity that the right strategies ran.
	var t2s, random float64
	for _, row := range rows {
		switch row.Strategy {
		case "T2S":
			t2s = row.CrossFraction
		case "OmniLedger":
			random = row.CrossFraction
		}
	}
	if t2s >= random {
		t.Fatalf("T2S %v not better than random %v", t2s, random)
	}
	// A warm start covering the whole stream has nothing to measure and
	// must fail rather than report a misleading 0% cross fraction.
	_, err = r.Cell(context.Background(), experiment.Cell{
		Kind: experiment.KindPlacement, Strategy: "T2S", Shards: 4, Warm: 1 << 30,
	})
	if !errors.Is(err, experiment.ErrBadSweep) {
		t.Fatalf("whole-stream warm start: err = %v", err)
	}
}

// TestExpandDoesNotMutateCallerCells: running an Uncached sweep over an
// explicit cell list must not write the sticky flags back into the
// caller's slice (a later cached sweep over the same cells would silently
// re-execute everything).
func TestExpandDoesNotMutateCallerCells(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	cells := []experiment.Cell{{Strategy: "OptChain", Shards: 2, Rate: 800}}
	if _, err := r.Collect(context.Background(), experiment.Sweep{Name: "wall", Cells: cells, Uncached: true}); err != nil {
		t.Fatal(err)
	}
	if cells[0].NoCache || cells[0].Kind != "" {
		t.Fatalf("expand mutated the caller's cells: %+v", cells[0])
	}
}

// TestConcurrentSweepsSingleflight: two overlapping sweeps streamed
// concurrently on one runner execute each shared cell once — the second
// consumer blocks on the in-flight execution instead of duplicating it.
func TestConcurrentSweepsSingleflight(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	s := tinySweep()
	type res struct {
		rows []experiment.Row
		err  error
	}
	results := make(chan res, 2)
	for i := 0; i < 2; i++ {
		go func() {
			rows, err := r.Collect(context.Background(), s)
			results <- res{rows, err}
		}()
	}
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatal(a.err, b.err)
	}
	// Exactly one of the two observers of each cell paid wall time.
	for i := range a.rows {
		wallA, wallB := a.rows[i].WallSeconds > 0, b.rows[i].WallSeconds > 0
		if wallA && wallB {
			t.Fatalf("cell %s executed twice across concurrent sweeps", a.rows[i].ID)
		}
		if a.rows[i].SteadyTPS != b.rows[i].SteadyTPS {
			t.Fatalf("cell %d diverged across concurrent sweeps", i)
		}
	}
}

func TestCellCacheSharedAcrossSweeps(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	if _, err := r.Collect(context.Background(), tinySweep()); err != nil {
		t.Fatal(err)
	}
	other := tinySweep()
	other.Name = "other"
	rows, err := r.Collect(context.Background(), other)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.WallSeconds != 0 {
			t.Fatalf("cell re-executed despite cache: %+v", row)
		}
		if row.Sweep != "other" {
			t.Fatalf("cached row kept stale sweep identity: %+v", row)
		}
	}
}

// TestMetisCaseInsensitive: strategy names resolve case-insensitively
// everywhere else, so a "metis" sim cell must get its partition wired
// exactly like "Metis".
func TestMetisCaseInsensitive(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	row, err := r.Cell(context.Background(), experiment.Cell{
		Kind: experiment.KindSim, Strategy: "metis", Shards: 2, Rate: 800,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row.Committed == 0 {
		t.Fatalf("degenerate metis row: %+v", row)
	}
}
