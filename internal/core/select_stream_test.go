package core_test

import (
	"testing"

	"optchain/internal/core"
	"optchain/internal/txgraph"
	"optchain/internal/workload"
)

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
	for _, w := range []struct{ name, spec string }{
		{"bitcoin", "bitcoin"},
		{"hotspot", "hotspot"},
		{"mix-ids", "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05"},
	} {
		src, err := workload.New(w.spec, workload.Params{N: txs, Seed: 5, Shards: 16})
		if err != nil {
			t.Fatal(err)
		}
		var (
			dedupe txgraph.Deduper
			nodes  []txgraph.Node
			offs   = []int{0}
			outs   []int
			tx     workload.Tx
		)
		for len(outs) < txs && src.Next(&tx) {
			from := len(nodes)
			for _, in := range tx.Inputs {
				nodes = append(nodes, txgraph.Node(in.Tx))
			}
			nodes = dedupe.Compact(nodes, from)
			offs = append(offs, len(nodes))
			outs = append(outs, tx.Outputs)
		}
		workload.Close(src)
		if len(outs) != txs {
			t.Fatalf("%s: stream ended after %d transactions", w.name, len(outs))
		}
		outCounts := func(v txgraph.Node) int { return outs[v] }

		for _, k := range []int{1, 2, 16, 64, 100} {
			support := core.NewOptChain(core.OptChainConfig{K: k, N: txs})
			dense := core.NewOptChain(core.OptChainConfig{K: k, N: txs, Latency: core.FlatLatency{}})
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
