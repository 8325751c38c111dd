package optchain_test

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"optchain"
)

// The package's core claim in a dozen lines: stream a synthetic
// Bitcoin-like workload through OptChain and through OmniLedger's
// hash-random placement, and compare cross-shard fractions at 16 shards.
func Example() {
	data, err := optchain.MaterializeWorkload("bitcoin", optchain.WorkloadParams{N: 20_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	frac := func(strategy string) float64 {
		eng, err := optchain.New(
			optchain.WithStrategy(strategy),
			optchain.WithShards(16),
			optchain.WithStreamCapacity(data.Len()),
		)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := eng.PlaceStream(optchain.DatasetStream(data))
		if err != nil {
			log.Fatal(err)
		}
		return stats.CrossFraction
	}

	optChain, random := frac("OptChain"), frac("OmniLedger")
	fmt.Printf("OptChain cuts the cross-shard fraction at least 3x: %v\n",
		optChain < random/3)
	fmt.Printf("random placement makes most transactions cross-shard: %v\n",
		random > 0.9)
	// Output:
	// OptChain cuts the cross-shard fraction at least 3x: true
	// random placement makes most transactions cross-shard: true
}

// Run the full end-to-end simulation (§V) under a cancellable context,
// with a progress callback that receives live commit counts every second
// of virtual time and once more when the run finishes.
func ExampleEngine_Run() {
	var reports []optchain.MetricsSnapshot
	eng, err := optchain.New(
		optchain.WithStrategy("OptChain"),
		optchain.WithShards(4),
		optchain.WithTxs(2000),
		optchain.WithValidators(8),
		optchain.WithRate(500),
		optchain.WithShardTuning(optchain.ShardConfig{
			BlockTxs:     100,
			MaxBlockWait: 500 * time.Millisecond,
		}),
		optchain.WithProgress(func(s optchain.MetricsSnapshot) {
			reports = append(reports, s)
		}),
		optchain.WithProgressEvery(time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := eng.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	last := reports[len(reports)-1]
	fmt.Printf("committed everything: %v\n", res.Committed == res.Total)
	fmt.Printf("progress reported while running: %v\n", len(reports) > 1 && !reports[0].Done)
	fmt.Printf("the last report closes the run: %v\n", last.Done && last.Committed == res.Total)
	// Output:
	// committed everything: true
	// progress reported while running: true
	// the last report closes the run: true
}

// The §IV-B comparison between offline graph partitioning and online
// placement. Metis k-way sees the whole TaN network at once and minimizes
// edge cut under a balance constraint; the Metis strategy replays its
// partition through the same online interface as the others. Its shards
// are balanced over the whole stream but not over time: the transactions
// that arrive together land together, the temporal imbalance the paper
// blames for its latency (Figs. 5-9). OptChain here runs without
// telemetry, so nothing holds its shards level: it cuts even fewer edges
// than Metis and is the most unbalanced strategy of all.
func ExamplePartitionTaN() {
	data, err := optchain.MaterializeWorkload("bitcoin", optchain.WorkloadParams{N: 20_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	const shards = 16
	part, err := optchain.PartitionTaN(data, shards, 1)
	if err != nil {
		log.Fatal(err)
	}

	// busiest divides the stream into ten arrival epochs and returns, for
	// each, the share of its transactions that its busiest shard received.
	busiest := func(a *optchain.Assignment) []float64 {
		epoch := data.Len() / 10
		shares := make([]float64, 10)
		for e := range shares {
			counts := make([]int, shards)
			for i := e * epoch; i < (e+1)*epoch; i++ {
				counts[a.ShardOf(optchain.Node(i))]++
			}
			shares[e] = float64(slices.Max(counts)) / float64(epoch)
		}
		return shares
	}
	stats := map[string]optchain.PlacementStats{}
	epochShares := map[string][]float64{}
	for _, strategy := range []string{"Metis", "OptChain", "Greedy", "OmniLedger"} {
		eng, err := optchain.New(
			optchain.WithStrategy(strategy),
			optchain.WithShards(shards),
			optchain.WithStreamCapacity(data.Len()),
			optchain.WithMetisPartition(part), // read by Metis alone
		)
		if err != nil {
			log.Fatal(err)
		}
		if stats[strategy], err = eng.PlaceStream(optchain.DatasetStream(data)); err != nil {
			log.Fatal(err)
		}
		epochShares[strategy] = busiest(eng.Assignment())
	}

	metis, opt := stats["Metis"], stats["OptChain"]
	fmt.Printf("Metis cuts fewer edges than online Greedy and random placement: %v\n",
		metis.CrossFraction < stats["Greedy"].CrossFraction &&
			metis.CrossFraction < stats["OmniLedger"].CrossFraction)
	fmt.Printf("OptChain without telemetry cuts fewer still: %v\n",
		opt.CrossFraction < metis.CrossFraction)
	fmt.Printf("Metis keeps its shard totals within 10%% of the mean: %v\n",
		metis.MaxShardShare <= 1.1)
	fmt.Printf("yet in every epoch its busiest shard takes over twice a balanced share: %v\n",
		slices.Min(epochShares["Metis"]) > 2.0/shards)
	fmt.Printf("random placement stays level in every epoch: %v\n",
		slices.Max(epochShares["OmniLedger"]) < 1.5/shards)
	fmt.Printf("OptChain without telemetry is the most unbalanced: %v\n",
		opt.MaxShardShare > 2*max(metis.MaxShardShare,
			stats["Greedy"].MaxShardShare, stats["OmniLedger"].MaxShardShare))
	// Output:
	// Metis cuts fewer edges than online Greedy and random placement: true
	// OptChain without telemetry cuts fewer still: true
	// Metis keeps its shard totals within 10% of the mean: true
	// yet in every epoch its busiest shard takes over twice a balanced share: true
	// random placement stays level in every epoch: true
	// OptChain without telemetry is the most unbalanced: true
}

// The paper's deployment story (§III-C): OptChain runs in the user's
// wallet, not in consensus, and scores each shard's Temporal Fitness from
// the shard telemetry the wallet observes. T2S pulls a transaction toward
// the shards holding its inputs; L2S pushes it away from a congested one.
func ExampleWithTelemetry() {
	data, err := optchain.MaterializeWorkload("bitcoin", optchain.WorkloadParams{N: 20_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	place := func(tel optchain.Telemetry) optchain.PlacementStats {
		eng, err := optchain.New(
			optchain.WithStrategy("OptChain"),
			optchain.WithShards(4),
			optchain.WithStreamCapacity(data.Len()),
			optchain.WithTelemetry(tel),
		)
		if err != nil {
			log.Fatal(err)
		}
		stats, err := eng.PlaceStream(optchain.DatasetStream(data))
		if err != nil {
			log.Fatal(err)
		}
		return stats
	}
	// Rates are in 1/seconds: ~100 ms round trips to every shard, and 2 s
	// expected verification on every shard, or 20 s on a congested shard 0.
	balanced := place(optchain.StaticTelemetry{
		Comm:   []float64{10, 10, 10, 10},
		Verify: []float64{0.5, 0.5, 0.5, 0.5},
	})
	congested := place(optchain.StaticTelemetry{
		Comm:   []float64{10, 10, 10, 10},
		Verify: []float64{0.05, 0.5, 0.5, 0.5},
	})

	fmt.Printf("the congested shard receives under 1%% of the transactions: %v\n",
		congested.ShardCounts[0] < int64(data.Len()/100))
	fmt.Printf("the cross-shard fraction moves by under a percentage point: %v\n",
		math.Abs(congested.CrossFraction-balanced.CrossFraction) < 0.01)
	// Static telemetry gives no feedback: a shard's load never raises its
	// expected verification time, so T2S is free to concentrate related
	// lineages. In Run, queue growth feeds back through the same L2S term.
	fmt.Printf("static telemetry leaves over half on one shard: %v\n",
		slices.Max(balanced.ShardCounts) > int64(data.Len()/2))
	// Output:
	// the congested shard receives under 1% of the transactions: true
	// the cross-shard fraction moves by under a percentage point: true
	// static telemetry leaves over half on one shard: true
}

// Add a placement strategy to the open registry; it becomes selectable by
// name everywhere, including cmd/optchain-sim -strategy.
func ExampleRegisterStrategy() {
	err := optchain.RegisterStrategy("round-robin", func(ctx optchain.StrategyContext) (optchain.Placer, error) {
		return &roundRobin{a: optchain.NewAssignment(ctx.K, ctx.N)}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	eng, err := optchain.New(
		optchain.WithStrategy("round-robin"),
		optchain.WithShards(4),
		optchain.WithStreamCapacity(8),
	)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s, err := eng.Place(optchain.StreamTx{Outputs: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(s)
	}
	// Output:
	// 0
	// 1
	// 2
	// 3
}

// roundRobin is the custom strategy of ExampleRegisterStrategy.
type roundRobin struct {
	a *optchain.Assignment
}

func (p *roundRobin) Place(u optchain.Node, inputs []optchain.Node) int {
	s := int(u) % p.a.K()
	p.a.Place(u, s)
	return s
}

func (p *roundRobin) Assignment() *optchain.Assignment { return p.a }
func (p *roundRobin) Name() string                     { return "round-robin" }

// Compose workloads with a mix: spec — 70% Bitcoin-like traffic, 20%
// hot-spot skew, 10% adversarial — and stream it through the engine. The
// spec string is exactly what optchain-sim -workload accepts; SCENARIOS.md
// documents the grammar.
func ExampleWithWorkload() {
	eng, err := optchain.New(
		optchain.WithWorkload("mix:bitcoin=0.7,hotspot=0.2,adversarial=0.1", nil),
		optchain.WithShards(8),
		optchain.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := eng.PlaceWorkload(10_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placed %d transactions across %d shards\n", stats.Placed, len(stats.ShardCounts))
	fmt.Printf("cross-shard fraction stays moderate under the blended load: %v\n",
		stats.CrossFraction < 0.5)
	// Output:
	// placed 10000 transactions across 8 shards
	// cross-shard fraction stays moderate under the blended load: true
}

// Replay a recorded .tan trace with a flash-crowd modulator superimposed
// on its real structure. Component specs nest in parentheses, so the same
// grammar drives mixes of replays.
func ExampleWithWorkload_replay() {
	dir, err := os.MkdirTemp("", "optchain-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Record a trace (what `tangen -o trace.tan` does).
	trace := filepath.Join(dir, "trace.tan")
	d, err := optchain.MaterializeWorkload("bitcoin", optchain.WorkloadParams{N: 5000, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(trace)
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Encode(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	// Replay it, compressing arrivals 4x during Markov-modulated bursts.
	eng, err := optchain.New(
		optchain.WithWorkload("replay:"+trace+",mod=(burst:boost=4)", nil),
		optchain.WithShards(8),
	)
	if err != nil {
		log.Fatal(err)
	}
	stats, err := eng.PlaceWorkload(5000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed the full recorded trace: %v\n", stats.Placed == d.Len())
	// Output:
	// replayed the full recorded trace: true
}
