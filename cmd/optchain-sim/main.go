// Command optchain-sim runs a single sharded-blockchain simulation and
// prints its metrics: throughput, latency distribution, cross-shard
// fraction, queue behavior. Strategies, protocols and workload scenarios
// resolve by name through the registries' one name table (case-insensitive,
// names drawn from [A-Za-z0-9._-]), so anything added with
// optchain.RegisterStrategy / RegisterProtocol / RegisterWorkload is
// selectable here; an unknown name fails listing the registered set. Ctrl-C
// cancels a run cleanly.
//
// Usage:
//
//	optchain-sim -shards 16 -rate 4000 -strategy OptChain
//	optchain-sim -shards 8 -rate 2000 -strategy OmniLedger -protocol rapidchain
//	optchain-sim -workload hotspot -txs 50000
//	optchain-sim -workload "burst:boost=12,onmean=600" -strategy OptChain
//	optchain-sim -workload "mix:bitcoin=0.7,hotspot=0.2,adversarial=0.1"
//	optchain-sim -workload "replay:trace.tan,mod=(burst:boost=4)" -txs 100000
//	optchain-sim -shards 16 -rate 6000 -cpuprofile cpu.out -memprofile mem.out
//	optchain-sim -list
//
// -workload selects a workload spec (see -list for the registered scenarios
// and SCENARIOS.md for the full grammar: knobs, mix composition, trace
// replay with arrival modulators) instead of the default calibrated
// Bitcoin-like dataset; scenario runs stream one transaction per issue
// event and never materialize a dataset. The -cpuprofile, -memprofile, and
// -trace flags capture runtime profiles of a run without a rebuild (see
// PERFORMANCE.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"optchain"
	"optchain/internal/profiling"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		txs        = flag.Int("txs", 0, "number of transactions (default 60000)")
		wl         = flag.String("workload", "", "workload spec (name, name:knob=value,..., mix:..., replay:... — see -list and SCENARIOS.md; default bitcoin)")
		seed       = flag.Int64("seed", 1, "random seed")
		shards     = flag.Int("shards", 16, "number of shards")
		validators = flag.Int("validators", 400, "validators per shard")
		rate       = flag.Float64("rate", 4000, "offered load, tx/s")
		strategy   = flag.String("strategy", "OptChain", "placement strategy (see -list)")
		protocol   = flag.String("protocol", "omniledger", "commit protocol (see -list)")
		validate   = flag.Bool("validate-utxo", false, "strict in-order UTXO validation (see optchain.WithUTXOValidation)")
		maxSim     = flag.Duration("max-sim-time", 20*time.Minute, "virtual-time cap")
		progress   = flag.Bool("progress", false, "print live progress to stderr")
		list       = flag.Bool("list", false, "list registered strategies and protocols, then exit")
	)
	var prof profiling.Config
	prof.AddFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Printf("strategies: %s\n", strings.Join(optchain.Strategies(), " "))
		fmt.Printf("protocols:  %s\n", strings.Join(optchain.Protocols(), " "))
		fmt.Printf("workloads:  %s\n", strings.Join(optchain.Workloads(), " "))
		return 0
	}
	count := 60_000
	if *txs > 0 {
		count = *txs
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "optchain-sim: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "optchain-sim: %v\n", err)
		}
	}()

	opts := []optchain.Option{
		optchain.WithTxs(count),
		optchain.WithShards(*shards),
		optchain.WithValidators(*validators),
		optchain.WithRate(*rate),
		optchain.WithStrategy(*strategy),
		optchain.WithProtocol(*protocol),
		optchain.WithSeed(*seed),
		optchain.WithUTXOValidation(*validate),
		optchain.WithMaxSimTime(*maxSim),
	}
	if *wl != "" {
		// The full spec passes through unchanged — composite scenarios
		// (mix components, replay arguments) are parsed by the engine.
		opts = append(opts, optchain.WithWorkload(*wl, nil))
	}
	if *progress {
		opts = append(opts, optchain.WithProgress(func(s optchain.MetricsSnapshot) {
			if s.Done {
				fmt.Fprint(os.Stderr, "\r\033[K")
				return
			}
			fmt.Fprintf(os.Stderr, "\rt=%6.0fs issued %d committed %d/%d queueMax %d",
				s.SimTime.Seconds(), s.Issued, s.Committed, s.Total, s.QueueMax)
		}))
	}
	eng, err := optchain.New(opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optchain-sim: %v\n", err)
		return 2
	}

	start := time.Now()
	res, err := eng.Run(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optchain-sim: %v\n", err)
		return 1
	}

	fmt.Printf("strategy=%s protocol=%s shards=%d rate=%.0f\n", res.Placer, res.Protocol, res.Shards, res.Rate)
	fmt.Printf("committed           %d / %d\n", res.Committed, res.Total)
	fmt.Printf("makespan            %.1f s (issue window %.1f s)\n", res.MakespanSeconds, res.IssueSeconds)
	fmt.Printf("throughput          %.0f tps total, %.0f tps steady-state\n", res.ThroughputTPS, res.SteadyTPS)
	fmt.Printf("latency             avg %.2f s | P50 %.2f | P99 %.2f | max %.2f\n",
		res.AvgLatency, res.P50, res.P99, res.MaxLatency)
	fmt.Printf("within 10 s         %.1f%%\n", 100*res.Latencies.FractionWithin(10*time.Second))
	fmt.Printf("cross-shard         %.1f%% (%d same / %d cross)\n", 100*res.CrossFraction, res.SameShard, res.CrossShard)
	fmt.Printf("blocks              %d cut, %d items committed, %d deferred, avg consensus %.2f s\n",
		res.BlocksCut, res.ItemsCommitted, res.ItemsDeferred, res.AvgConsensusSecs)
	fmt.Printf("queues              peak max %d\n", res.Queues.PeakMax())
	fmt.Printf("retries/aborts      %d / %d\n", res.Retries, res.Aborts)
	fmt.Printf("wall time           %.1f s\n", time.Since(start).Seconds())
	return 0
}
