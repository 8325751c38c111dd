package sim

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"optchain/internal/chain"
	"optchain/internal/dataset"
	"optchain/internal/registry"
	"optchain/internal/shard"
	"optchain/internal/workload"
)

// fastSourceConfig mirrors fastConfig for streaming-source runs.
func fastSourceConfig(src workload.Source, txs int, placer string, shards int, rate float64) Config {
	return Config{
		Source:     src,
		Txs:        txs,
		Shards:     shards,
		Validators: 8,
		Rate:       rate,
		Placer:     placer,
		Shard: shard.Config{
			BlockTxs:     100,
			MaxBlockWait: 500 * time.Millisecond,
		},
		QueueSampleEvery: 2 * time.Second,
		Seed:             7,
	}
}

func buildSource(t *testing.T, name string, n, shards int) workload.Source {
	t.Helper()
	src, err := workload.New(name, workload.Params{N: n, Seed: 7, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSourceRunCommitsEveryScenario: every standalone workload scenario
// (replay needs a trace-file argument) streams end-to-end through a
// simulation without a materialized Dataset.
func TestSourceRunCommitsEveryScenario(t *testing.T) {
	const n, k = 2000, 4
	for _, name := range workload.StandaloneNames() {
		res, err := Run(fastSourceConfig(buildSource(t, name, n, k), n, "OptChain", k, 500))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Committed != n {
			t.Fatalf("%s: committed %d of %d", name, res.Committed, n)
		}
		if res.ThroughputTPS <= 0 {
			t.Fatalf("%s: degenerate result: %+v", name, res)
		}
	}
}

// TestSourceRunDeterministic: equal seeds give identical commit counts and
// cross-shard fractions.
func TestSourceRunDeterministic(t *testing.T) {
	const n, k = 1500, 4
	run := func() *Result {
		res, err := Run(fastSourceConfig(buildSource(t, "hotspot", n, k), n, "OptChain", k, 500))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CrossFraction != b.CrossFraction || a.Committed != b.Committed {
		t.Fatalf("runs diverge: %v/%d vs %v/%d", a.CrossFraction, a.Committed, b.CrossFraction, b.Committed)
	}
}

// badSource is a misbehaving custom Source: its transaction at stream
// position bad is replaced by the given malformed one.
type badSource struct {
	i, bad int
	tx     workload.Tx
}

func (b *badSource) Name() string { return "bad" }
func (b *badSource) Next(tx *workload.Tx) bool {
	tx.Inputs = tx.Inputs[:0]
	tx.Outputs = 2
	tx.Value = 100
	tx.OutVals = tx.OutVals[:0]
	tx.Gap = 1
	if b.i == b.bad {
		tx.Inputs = append(tx.Inputs, b.tx.Inputs...)
		tx.Outputs = b.tx.Outputs
		tx.OutVals = append(tx.OutVals, b.tx.OutVals...)
	}
	b.i++
	return b.i <= 10
}

// TestSourceZeroOutputsRejected: a custom Source emitting a malformed
// transaction — zero outputs, an input spending a later transaction, a
// negative input index, output values that do not match the output
// count — aborts the run with an error naming the scenario, the
// transaction and the offending input (wrapping the chain error that names
// the fault, where one does), for every strategy, instead of panicking the
// event kernel (divide-by-zero), the placer (index out of range) or the
// ledger build.
func TestSourceZeroOutputsRejected(t *testing.T) {
	cases := []struct {
		name string
		bad  int
		tx   workload.Tx
		is   error
		msg  string
	}{
		{"zero outputs", 1, workload.Tx{Outputs: 0}, chain.ErrEmptyOutputs, "workload bad: tx 1 has zero outputs"},
		{"forward reference", 3, workload.Tx{Inputs: []workload.Input{{Tx: 0}, {Tx: 50}}, Outputs: 1}, chain.ErrMissingUTXO, "workload bad: tx 3 input 1 spends tx 50"},
		{"self reference", 3, workload.Tx{Inputs: []workload.Input{{Tx: 3}}, Outputs: 1}, chain.ErrMissingUTXO, "workload bad: tx 3 input 0 spends tx 3"},
		{"negative index", 0, workload.Tx{Inputs: []workload.Input{{Tx: -1}}, Outputs: 1}, chain.ErrMissingUTXO, "workload bad: tx 0 input 0 spends tx -1"},
		{"output values", 2, workload.Tx{Outputs: 2, OutVals: []int64{100}}, nil, "workload bad: tx 2 has 1 output values for 2 outputs"},
	}
	for _, c := range cases {
		for _, placer := range []string{"OptChain", "T2S", "Greedy", "OmniLedger"} {
			_, err := Run(fastSourceConfig(&badSource{bad: c.bad, tx: c.tx}, 10, placer, 4, 500))
			if err == nil || c.is != nil && !errors.Is(err, c.is) || !strings.Contains(err.Error(), c.msg) {
				t.Errorf("%s/%s: err = %v, want %q wrapping %v", c.name, placer, err, c.msg, c.is)
			}
		}
	}
}

// observedSource counts the placement decisions fed back to it.
type observedSource struct {
	workload.Source
	seen int
}

func (o *observedSource) Observe(i, shard int) { o.seen++ }

// TestMetisRunIsBlind: the simulator feeds every placement back to a
// feedback-aware source, except when the placer replays an offline
// partition (Metis). That partition was computed from a materialization of
// the stream, which saw no placements; an adversary answering the replay
// would attack a graph other than the one partitioned.
func TestMetisRunIsBlind(t *testing.T) {
	const n, k = 600, 4
	d, err := workload.Materialize(buildSource(t, "adversarial", n, k), n)
	if err != nil {
		t.Fatal(err)
	}
	part, err := registry.MetisPartition(d, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	for placer, want := range map[string]int{"OptChain": n, "Metis": 0} {
		src := &observedSource{Source: buildSource(t, "adversarial", n, k)}
		cfg := fastSourceConfig(src, n, placer, k, 500)
		cfg.MetisPart = part
		if _, err := Run(cfg); err != nil {
			t.Fatalf("%s: %v", placer, err)
		}
		if src.seen != want {
			t.Errorf("%s: the source observed %d placements, want %d", placer, src.seen, want)
		}
	}
}

// TestLedgerKeepsRecordedValues: a converted trace whose values are not an
// even split (SCENARIOS.md's excerpt: 4900000000 as 3000000000|1900000000)
// reaches the simulator's ledger with its recorded values through a .tan
// trace (replay:).
func TestLedgerKeepsRecordedValues(t *testing.T) {
	d, _, err := dataset.ConvertCSV(strings.NewReader(
		"txid,inputs,outputs\naa01,,5000000000\nbb02,aa01:0,3000000000|1900000000\n"), dataset.ConvertConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := d.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "real.tan")
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := fastSourceConfig(buildSource(t, "replay:"+path, 2, 2), 2, "OptChain", 2, 500)
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	r := newRunner(cfg)
	if _, err := r.run(); err != nil {
		t.Fatal(err)
	}
	for idx, want := range []int64{3000000000, 1900000000} {
		op := chain.Outpoint{Tx: d.TxID(1), Index: uint32(idx)}
		var got []int64
		for _, sh := range r.shards {
			if v, ok := sh.Ledger().OutputValue(op); ok {
				got = append(got, v)
			}
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("ledger holds output %d at %v, want %d", idx, got, want)
		}
	}
}

// TestShortStreamFailsTheRun: a replay trace shorter than Txs fails the
// run naming both counts, instead of waiting until MaxSimTime for
// transactions that never come and reporting a partial commit count.
func TestShortStreamFailsTheRun(t *testing.T) {
	d, err := dataset.Generate(dataset.Config{N: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := d.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "short.tan")
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := fastSourceConfig(buildSource(t, "replay:"+path, 3000, 4), 3000, "OptChain", 4, 500)
	res, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "ended after 1000 of 3000 transactions") {
		t.Fatalf("Run = %+v, %v; want the short stream refused", res, err)
	}
}

// TestSourceConfigValidation: a Source requires Txs.
func TestSourceConfigValidation(t *testing.T) {
	src := buildSource(t, "burst", 100, 4)
	if _, err := Run(Config{Source: src, Shards: 4, Rate: 100}); err == nil {
		t.Fatal("Source without Txs accepted")
	}
}

// TestSourceBurstShapesArrivals: the burst scenario's Gap modulation
// compresses the issue window relative to nominal 1/rate spacing (~20% of
// transactions arrive boost× faster).
func TestSourceBurstShapesArrivals(t *testing.T) {
	const n, k = 12_000, 4
	cfg := fastSourceConfig(buildSource(t, "burst", n, k), n, "OptChain", k, 2000)
	issueDone := time.Duration(-1)
	cfg.ProgressEvery = 100 * time.Millisecond
	cfg.Progress = func(s Snapshot) {
		if s.Issued == n && issueDone < 0 {
			issueDone = s.SimTime
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != n {
		t.Fatalf("committed %d of %d", res.Committed, n)
	}
	nominal := time.Duration(float64(n) / 2000 * float64(time.Second))
	if issueDone < 0 || issueDone >= nominal-nominal/20 {
		t.Fatalf("burst run did not compress arrivals: issue window %v vs nominal %v", issueDone, nominal)
	}
	// And the reported offered-load window must be the actual span, so
	// SteadyTPS is not diluted by idle tail the bursts never offered.
	if got := time.Duration(res.IssueSeconds * float64(time.Second)); got >= nominal {
		t.Fatalf("IssueSeconds %v still reports the nominal window %v", got, nominal)
	}
}
