package sim

import (
	"testing"
	"time"

	"optchain/internal/dataset"
	"optchain/internal/metis"
	"optchain/internal/workload"
)

// smallDataset is shared across tests (generation is deterministic).
func smallDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.N = n
	cfg.Seed = 1
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fastConfig is fastSourceConfig over the first n transactions of the
// calibrated bitcoin stream at seed 1 (smallDataset's, transaction for
// transaction).
func fastConfig(t *testing.T, n int, placer string, shards int, rate float64) Config {
	t.Helper()
	src, err := workload.New("bitcoin", workload.Params{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return fastSourceConfig(src, n, placer, shards, rate)
}

func TestRunCommitsEverythingOptChain(t *testing.T) {
	res, err := Run(fastConfig(t, 3000, "OptChain", 4, 500))
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != res.Total || res.Total != 3000 {
		t.Fatalf("committed %d of %d", res.Committed, res.Total)
	}
	if res.ThroughputTPS <= 0 || res.AvgLatency <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.MaxLatency < res.AvgLatency {
		t.Fatal("max latency below average")
	}
	if res.Latencies.Count() != res.Committed {
		t.Fatalf("latency samples %d != committed %d", res.Latencies.Count(), res.Committed)
	}
	if res.CrossFraction <= 0 || res.CrossFraction >= 1 {
		t.Fatalf("cross fraction = %v", res.CrossFraction)
	}
	if res.Queues.PeakMax() < 0 {
		t.Fatal("missing queue metrics")
	}
}

func TestRunAllPlacersCommit(t *testing.T) {
	d := smallDataset(t, 1500)
	g, err := d.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	xadj, adj := g.UndirectedCSR()
	part, err := metis.PartitionKWay(xadj, adj, 4, &metis.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"OptChain", "T2S", "OmniLedger", "Greedy", "Metis"} {
		cfg := fastConfig(t, d.Len(), kind, 4, 400)
		cfg.MetisPart = part
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if res.Committed != res.Total {
			t.Fatalf("%s committed %d of %d", kind, res.Committed, res.Total)
		}
		if res.Placer != kind {
			t.Fatalf("placer name %q, want %q", res.Placer, kind)
		}
	}
}

func TestOptChainBeatsRandomOnCrossAndLatency(t *testing.T) {
	const n = 4000
	oc, err := Run(fastConfig(t, n, "OptChain", 4, 600))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Run(fastConfig(t, n, "OmniLedger", 4, 600))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("OptChain: cross=%.3f avgLat=%.2fs tput=%.0f | Random: cross=%.3f avgLat=%.2fs tput=%.0f",
		oc.CrossFraction, oc.AvgLatency, oc.ThroughputTPS,
		rnd.CrossFraction, rnd.AvgLatency, rnd.ThroughputTPS)
	if oc.CrossFraction >= rnd.CrossFraction/2 {
		t.Fatalf("OptChain cross %.3f not well below random %.3f", oc.CrossFraction, rnd.CrossFraction)
	}
	if oc.AvgLatency >= rnd.AvgLatency {
		t.Fatalf("OptChain latency %.2f not below random %.2f", oc.AvgLatency, rnd.AvgLatency)
	}
}

func TestRapidChainBackendWorks(t *testing.T) {
	cfg := fastConfig(t, 1500, "OptChain", 4, 400)
	cfg.Protocol = "rapidchain"
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != res.Total {
		t.Fatalf("committed %d of %d", res.Committed, res.Total)
	}
	if res.Protocol != "rapidchain" {
		t.Fatalf("protocol = %q", res.Protocol)
	}
}

func TestOverloadBacklogsButCapStops(t *testing.T) {
	// A rate far above the system's capacity with a short cap: the sim
	// must stop at the cap and report partial commitment.
	cfg := fastConfig(t, 4000, "OmniLedger", 2, 100000)
	cfg.MaxSimTime = 20 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed >= res.Total {
		t.Fatalf("overloaded 2-shard system committed everything (%d)", res.Committed)
	}
	if res.MakespanSeconds != 20 {
		t.Fatalf("makespan = %v, want the 20s cap", res.MakespanSeconds)
	}
}

func TestHigherRateDoesNotLowerThroughputOptChain(t *testing.T) {
	const n = 3000
	lo, err := Run(fastConfig(t, n, "OptChain", 4, 200))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(fastConfig(t, n, "OptChain", 4, 500))
	if err != nil {
		t.Fatal(err)
	}
	if hi.ThroughputTPS < lo.ThroughputTPS*0.9 {
		t.Fatalf("throughput fell with rate: %.0f -> %.0f", lo.ThroughputTPS, hi.ThroughputTPS)
	}
}

func TestMoreShardsReduceLatencyUnderLoad(t *testing.T) {
	const n = 3000
	few, err := Run(fastConfig(t, n, "OptChain", 2, 500))
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(fastConfig(t, n, "OptChain", 8, 500))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("2 shards: %.2fs avg; 8 shards: %.2fs avg", few.AvgLatency, many.AvgLatency)
	if many.AvgLatency >= few.AvgLatency {
		t.Fatalf("8 shards (%.2fs) not faster than 2 (%.2fs) under load", many.AvgLatency, few.AvgLatency)
	}
}

func TestConfigValidation(t *testing.T) {
	src := func() workload.Source { return fastConfig(t, 100, "OptChain", 2, 100).Source }
	if _, err := Run(Config{Txs: 100, Shards: 2, Rate: 100}); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, err := Run(Config{Source: src(), Txs: 100, Rate: 100}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := Run(Config{Source: src(), Txs: 100, Shards: 2}); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(Config{Source: src(), Txs: 100, Shards: 2, Rate: 10, Placer: "Metis"}); err == nil {
		t.Fatal("metis without partition accepted")
	}
	if _, err := Run(Config{Source: src(), Txs: 100, Shards: 2, Rate: 10, Placer: "bogus"}); err == nil {
		t.Fatal("bogus placer accepted")
	}
	if _, err := Run(Config{Source: src(), Txs: 100, Shards: 2, Rate: 10, Protocol: "bogus"}); err == nil {
		t.Fatal("bogus protocol accepted")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	const n = 800
	a, err := Run(fastConfig(t, n, "OptChain", 4, 300))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastConfig(t, n, "OptChain", 4, 300))
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatency != b.AvgLatency || a.ThroughputTPS != b.ThroughputTPS || a.CrossFraction != b.CrossFraction {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}
