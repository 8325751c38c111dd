// Benchmarks: every registered sweep behind the paper's evaluation at
// reduced scale (BenchmarkSweep), plus micro-benchmarks of the hot paths:
// T2S score maintenance, placement strategies, the ledger, the partitioner,
// and the event kernel.
package optchain_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"optchain"
	"optchain/experiment"
	_ "optchain/internal/bench" // registers the paper's sweeps
	"optchain/internal/chain"
	"optchain/internal/core"
	"optchain/internal/dataset"
	"optchain/internal/des"
	"optchain/internal/metis"
	"optchain/internal/placement"
	"optchain/internal/sim"
	"optchain/internal/txgraph"
	"optchain/internal/workload"
)

// BenchmarkSweep runs every registered sweep at reduced scale, one
// sub-benchmark per sweep (run cmd/optchain-bench -sweep NAME for the
// full-scale rows).
func BenchmarkSweep(b *testing.B) {
	for _, name := range experiment.SweepNames() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := experiment.NewRunner(experiment.Params{Quick: true, N: 4000, TableN: 20000, Seed: 1})
				s, err := experiment.BuildSweep(name, r.Params())
				if err != nil {
					b.Fatal(err)
				}
				if _, err := r.Collect(context.Background(), s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Micro-benchmarks: placement hot paths ---

func benchDataset(b *testing.B, n int) *dataset.Dataset {
	b.Helper()
	cfg := dataset.DefaultConfig()
	cfg.N = n
	d, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkPlaceOptChain measures the full Temporal-Fitness placement cost
// per transaction (the paper claims O(k) on the scale-free TaN network).
func BenchmarkPlaceOptChain(b *testing.B) {
	d := benchDataset(b, 50_000)
	tel := core.StaticTelemetry{Comm: make([]float64, 16), Verify: make([]float64, 16)}
	for i := range tel.Comm {
		tel.Comm[i], tel.Verify[i] = 10, 0.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := core.NewOptChain(core.OptChainConfig{K: 16, N: d.Len(), Telemetry: tel})
		p.Scores().SetOutCounts(func(v txgraph.Node) int { return d.NumOutputs(int(v)) })
		var buf []txgraph.Node
		b.StartTimer()
		for j := 0; j < d.Len(); j++ {
			buf = d.InputTxNodes(j, buf)
			p.Place(txgraph.Node(j), buf)
		}
	}
	b.ReportMetric(float64(d.Len()), "tx/op")
}

func benchPlacer(b *testing.B, mk func(d *dataset.Dataset) placement.Placer) {
	b.Helper()
	d := benchDataset(b, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := mk(d)
		var buf []txgraph.Node
		b.StartTimer()
		for j := 0; j < d.Len(); j++ {
			buf = d.InputTxNodes(j, buf)
			p.Place(txgraph.Node(j), buf)
		}
	}
	b.ReportMetric(float64(d.Len()), "tx/op")
}

func BenchmarkPlaceRandom(b *testing.B) {
	benchPlacer(b, func(d *dataset.Dataset) placement.Placer {
		return placement.NewRandom(16, d.Len())
	})
}

func BenchmarkPlaceGreedy(b *testing.B) {
	benchPlacer(b, func(d *dataset.Dataset) placement.Placer {
		return placement.NewGreedy(16, d.Len(), 0.1)
	})
}

func BenchmarkPlaceT2S(b *testing.B) {
	benchPlacer(b, func(d *dataset.Dataset) placement.Placer {
		p := core.NewT2SPlacer(16, d.Len(), 0.5, 0.1)
		p.Scores().SetOutCounts(func(v txgraph.Node) int { return d.NumOutputs(int(v)) })
		return p
	})
}

// flatLatency is telemetry with degenerate rates: E(j) = 0 for every shard,
// as without telemetry, but the placer keeps its dense select over all k.
func flatLatency(k int) core.Telemetry {
	return core.StaticTelemetry{Comm: make([]float64, k), Verify: make([]float64, k)}
}

// BenchmarkPlaceOptChainSelect prices the two selects of OptChainPlacer on
// one stream: over the support of p'(u) (no telemetry) and over all k
// candidates (what a telemetry-bearing model needs). Same decisions; the
// difference between the rows of one k is the select.
func BenchmarkPlaceOptChainSelect(b *testing.B) {
	for _, k := range []int{16, 64} {
		for _, sel := range []struct {
			name string
			tel  core.Telemetry
		}{{"support", nil}, {"dense", flatLatency(k)}} {
			b.Run(fmt.Sprintf("%s/k=%d", sel.name, k), func(b *testing.B) {
				benchPlacer(b, func(d *dataset.Dataset) placement.Placer {
					p := core.NewOptChain(core.OptChainConfig{K: k, N: d.Len(), Telemetry: sel.tel})
					p.Scores().SetOutCounts(func(v txgraph.Node) int { return d.NumOutputs(int(v)) })
					return p
				})
			})
		}
	}
}

// BenchmarkDedupeInputs prices txgraph.Deduper on the usual two inputs, on
// sixteen (just past the switch from scanning to the table) and on a
// 300-input hub, a third of each list repeats.
func BenchmarkDedupeInputs(b *testing.B) {
	for _, n := range []int{2, 16, 300} {
		b.Run(fmt.Sprintf("inputs=%d", n), func(b *testing.B) {
			ins := make([]txgraph.Node, n)
			for i := range ins {
				ins[i] = txgraph.Node(i - i%3*(i/2) + 1_000_000)
			}
			buf := make([]txgraph.Node, 0, n)
			var d txgraph.Deduper
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = d.Compact(append(buf[:0], ins...), 0)
			}
			b.ReportMetric(float64(len(buf)), "distinct")
		})
	}
}

// BenchmarkSnapshot prices the two halves of a restart on 200k placed
// transactions of the benchmark's three streams: write is WriteSnapshot into
// a reused buffer, read is a fresh engine plus ReadSnapshot of those bytes.
// ns/tx is per placed transaction.
func BenchmarkSnapshot(b *testing.B) {
	const txs = 200_000
	for i, name := range []string{"bitcoin", "hotspot", "mix-ids"} {
		opts := []optchain.Option{optchain.WithShards(16), optchain.WithSeed(1),
			optchain.WithWorkload(benchmarkSpecs[i], nil), optchain.WithStreamCapacity(txs)}
		e, err := optchain.New(opts...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.PlaceWorkload(txs); err != nil {
			b.Fatal(err)
		}
		var snap bytes.Buffer
		if err := e.WriteSnapshot(&snap); err != nil {
			b.Fatal(err)
		}
		b.Run("write/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				snap.Reset()
				if err := e.WriteSnapshot(&snap); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/txs, "ns/tx")
		})
		b.Run("read/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fresh, err := optchain.New(opts...)
				if err != nil {
					b.Fatal(err)
				}
				if err := fresh.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/txs, "ns/tx")
		})
	}
}

// --- Micro-benchmarks: substrates ---

func BenchmarkDatasetGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := dataset.DefaultConfig()
		cfg.N = 100_000
		if _, err := dataset.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100_000, "tx/op")
}

func BenchmarkTaNGraphBuild(b *testing.B) {
	d := benchDataset(b, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.BuildGraph(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetisPartition(b *testing.B) {
	d := benchDataset(b, 50_000)
	g, err := d.BuildGraph()
	if err != nil {
		b.Fatal(err)
	}
	xadj, adj := g.UndirectedCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.PartitionKWay(xadj, adj, 16, &metis.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLedgerSameShardCommit(b *testing.B) {
	d := benchDataset(b, 20_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := chain.NewLedger(0)
		for j := 0; j < d.Len(); j++ {
			tx := d.Tx(j)
			if !tx.IsCoinbase() {
				if err := l.LockAndSpend(tx.ID, tx.Inputs); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.AddOutputs(tx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(d.Len()), "tx/op")
}

func BenchmarkDESThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := des.New()
		count := 0
		var loop func(*des.Simulator)
		loop = func(sim *des.Simulator) {
			count++
			if count < 1_000_000 {
				sim.Schedule(1, "tick", loop)
			}
		}
		s.Schedule(0, "tick", loop)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1e6, "events/op")
}

// BenchmarkSimEndToEnd measures one full small simulation — the unit of
// cost behind every figure sweep cell.
func BenchmarkSimEndToEnd(b *testing.B) {
	d := benchDataset(b, 10_000)
	var events uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Source:     workload.FromDataset(d),
			Txs:        d.Len(),
			Shards:     8,
			Validators: 32,
			Rate:       2000,
			Seed:       1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Committed != d.Len() {
			b.Fatalf("committed %d of %d", res.Committed, d.Len())
		}
		events += res.Events
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	txs := float64(b.N * d.Len())
	b.ReportMetric(float64(d.Len()), "tx/op")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/txs, "allocs/tx")
	b.ReportMetric(float64(events)/txs, "events/tx")
}
