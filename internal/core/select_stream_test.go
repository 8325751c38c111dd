package core

import (
	"testing"

	"optchain/internal/txgraph"
	"optchain/internal/workload"
)

// benchmarkStreams are the stream shapes of the repository benchmark's three
// workloads.
var benchmarkStreams = []struct{ name, spec string }{
	{"bitcoin", "bitcoin"},
	{"hotspot", "hotspot"},
	{"mix-ids", "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05"},
}

// streamInputs generates txs transactions of spec for 16 shards (seed 5) and
// returns the deduplicated inputs of transaction u as
// nodes[offs[u]:offs[u+1]] and its output count as outs[u].
func streamInputs(t *testing.T, spec string, txs int) (nodes []txgraph.Node, offs, outs []int) {
	t.Helper()
	src, err := workload.New(spec, workload.Params{N: txs, Seed: 5, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer workload.Close(src)
	var (
		dedupe txgraph.Deduper
		tx     workload.Tx
	)
	offs = []int{0}
	for len(outs) < txs && src.Next(&tx) {
		from := len(nodes)
		for _, in := range tx.Inputs {
			nodes = append(nodes, txgraph.Node(in.Tx))
		}
		nodes = dedupe.Compact(nodes, from)
		offs = append(offs, len(nodes))
		outs = append(outs, tx.Outputs)
	}
	if len(outs) != txs {
		t.Fatalf("%s: stream ended after %d transactions", spec, len(outs))
	}
	return nodes, offs, outs
}

// TestSupportSelectMatchesDenseOnStreams places the benchmark's three stream
// shapes twice, once deciding over the support of p'(u) and once with the
// dense select over all k shards, and requires the same shard for every
// transaction. Each placer follows its own decisions, so one divergence
// would compound; the first is reported.
func TestSupportSelectMatchesDenseOnStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("30 placement passes of 200k transactions")
	}
	const txs = 200_000
	for _, w := range benchmarkStreams {
		nodes, offs, outs := streamInputs(t, w.spec, txs)
		outCounts := func(v txgraph.Node) int { return outs[v] }

		for _, k := range []int{1, 2, 16, 64, 100} {
			support := NewOptChain(OptChainConfig{K: k, N: txs})
			dense := NewOptChain(OptChainConfig{K: k, N: txs, Telemetry: flatLatency(k)})
			support.Scores().SetOutCounts(outCounts)
			dense.Scores().SetOutCounts(outCounts)
			for u := 0; u < txs; u++ {
				in := nodes[offs[u]:offs[u+1]]
				got, want := support.Place(txgraph.Node(u), in), dense.Place(txgraph.Node(u), in)
				if got != want {
					t.Fatalf("%s k=%d: transaction %d (inputs %v) placed in shard %d over the support, %d by the dense select",
						w.name, k, u, in, got, want)
				}
			}
			if a, b := support.Scores().SlabLen(), dense.Scores().SlabLen(); a != b {
				t.Fatalf("%s k=%d: %d slab entries held over the support, %d by the dense select", w.name, k, a, b)
			}
		}
	}
}
