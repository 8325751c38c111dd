package registry

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"optchain/internal/chain"
	"optchain/internal/core"
	"optchain/internal/dataset"
	"optchain/internal/des"
	"optchain/internal/names"
	"optchain/internal/placement"
	"optchain/internal/simnet"
	"optchain/internal/txgraph"
)

// TestRegisterRejectsBadEntries: both registries are names tables (whose
// rules names_test.go covers), wired to refuse a built-in's name under
// another casing.
func TestRegisterRejectsBadEntries(t *testing.T) {
	strategy := func(StrategyContext) (placement.Placer, error) { return placement.NewRandom(1, 0), nil }
	protocol := func(ProtocolContext) (CommitBackend, error) { return nil, nil }
	if err := RegisterStrategy("optchain", strategy); !errors.Is(err, names.ErrBadRegistration) {
		t.Errorf("strategy re-registered under another casing: %v", err)
	}
	if err := RegisterProtocol("OmniLedger", protocol); !errors.Is(err, names.ErrBadRegistration) {
		t.Errorf("protocol re-registered under another casing: %v", err)
	}
}

func TestUnknownNamesListTheRegisteredSet(t *testing.T) {
	_, err := NewStrategy("nope", StrategyContext{K: 4})
	if !errors.Is(err, ErrUnknownStrategy) {
		t.Fatalf("NewStrategy(nope) = %v", err)
	}
	for _, name := range Strategies() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-strategy error %q does not list %q", err, name)
		}
	}
	_, err = NewProtocol("nope", ProtocolContext{})
	if !errors.Is(err, ErrUnknownProtocol) {
		t.Fatalf("NewProtocol(nope) = %v", err)
	}
	for _, name := range Protocols() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-protocol error %q does not list %q", err, name)
		}
	}
	if _, err := NewStrategy("OptChain", StrategyContext{K: 0}); err == nil {
		t.Error("a strategy over zero shards was built")
	}
	if name, err := StrategyName(" optchain "); name != "OptChain" || err != nil {
		t.Errorf("StrategyName(optchain) = %q, %v; want the registered spelling", name, err)
	}
	if name, err := ProtocolName("OmniLedger"); name != "omniledger" || err != nil {
		t.Errorf("ProtocolName(OmniLedger) = %q, %v; want the registered spelling", name, err)
	}
	if _, err := ProtocolName("nope"); !errors.Is(err, ErrUnknownProtocol) {
		t.Errorf("ProtocolName(nope) = %v", err)
	}
}

// TestBuiltinStrategiesBuild: every built-in resolves under any casing and
// builds a working placer at the smallest and the paper's largest shard
// count.
func TestBuiltinStrategiesBuild(t *testing.T) {
	const n = 64
	builtins := []string{"Greedy", "Metis", "OmniLedger", "OptChain", "T2S"}
	if got := Strategies(); len(got) < len(builtins) {
		t.Fatalf("Strategies() = %v, want at least %v", got, builtins)
	}
	for _, name := range builtins {
		for _, k := range []int{1, 16} {
			part := make([]int32, n)
			for i := range part {
				part[i] = int32(i % k)
			}
			for _, spelled := range []string{name, strings.ToUpper(name), " " + strings.ToLower(name) + " "} {
				p, err := NewStrategy(spelled, StrategyContext{
					K: k, N: n, MetisPart: part,
					OutCounts: func(txgraph.Node) int { return 2 },
				})
				if err != nil {
					t.Fatalf("NewStrategy(%q, K=%d): %v", spelled, k, err)
				}
				if p.Name() != name {
					t.Errorf("NewStrategy(%q).Name() = %q, want %q", spelled, p.Name(), name)
				}
				var inputs []txgraph.Node
				for u := 0; u < n; u++ {
					if s := p.Place(txgraph.Node(u), inputs); s < 0 || s >= k {
						t.Fatalf("%s K=%d: tx %d placed in shard %d", name, k, u, s)
					}
					inputs = append(inputs[:0], txgraph.Node(u))
				}
				if got := p.Assignment().Len(); got != n {
					t.Errorf("%s K=%d: assignment holds %d of %d", name, k, got, n)
				}
			}
		}
	}
}

// TestBuiltinProtocolsBuild: both commit backends resolve under any casing
// and attach to a simulation with fresh counters; the OptChain factory wires
// either L2S estimator when telemetry is supplied.
func TestBuiltinProtocolsBuild(t *testing.T) {
	for _, name := range []string{"omniledger", "RapidChain"} {
		sim := des.New()
		b, err := NewProtocol(name, ProtocolContext{
			Sim:    sim,
			Net:    simnet.New(sim),
			Locate: func(chain.TxID) int { return 0 },
		})
		if err != nil {
			t.Fatalf("NewProtocol(%q): %v", name, err)
		}
		if same, cross, aborts := b.Counters(); same != 0 || cross != 0 || aborts != 0 {
			t.Errorf("%s: fresh counters = %d/%d/%d", name, same, cross, aborts)
		}
	}
	tel := core.StaticTelemetry{Comm: []float64{10, 10}, Verify: []float64{1, 1}}
	p, err := NewStrategy("OptChain", StrategyContext{K: 2, N: 4, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	if s := p.Place(0, nil); s < 0 || s >= 2 {
		t.Errorf("first transaction placed in shard %d", s)
	}
}

func TestMetisRejectsShortPartition(t *testing.T) {
	if _, err := NewStrategy("Metis", StrategyContext{K: 4, N: 10, MetisPart: make([]int32, 9)}); err == nil {
		t.Fatal("a 9-entry partition accepted for a 10-transaction stream")
	}
	if _, err := NewStrategy("Metis", StrategyContext{K: 4, N: 10}); err == nil {
		t.Fatal("a missing partition accepted")
	}
}

// TestSnapshotKeepsOutputCounts: a T2S-backed placer told each output count
// only while it places that transaction, as an engine and the simulator
// tell it, round-trips through WriteState/RestoreState mid-stream and ends
// with the uninterrupted placer's retirements, slab and decisions. The
// counts are the section's: a restore that asked the source for them would
// get 0 (unknown) for every placed transaction and never retire one.
func TestSnapshotKeepsOutputCounts(t *testing.T) {
	const k, n, cut = 4, 200, 100
	for _, strategy := range []string{"OptChain", "T2S"} {
		// A chain: each transaction declares one output and spends its
		// predecessor's.
		build := func(placed *int) placement.Placer {
			p, err := NewStrategy(strategy, StrategyContext{K: k, N: n, OutCounts: func(v txgraph.Node) int {
				if int(v) == *placed {
					return 1
				}
				return 0
			}})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		place := func(p placement.Placer, placed *int, to int) {
			for ; *placed < to; *placed++ {
				var inputs []txgraph.Node
				if *placed > 0 {
					inputs = []txgraph.Node{txgraph.Node(*placed - 1)}
				}
				p.Place(txgraph.Node(*placed), inputs)
			}
		}
		var atRef, atCut, atFresh int
		ref, cutP := build(&atRef), build(&atCut)
		place(ref, &atRef, n)
		place(cutP, &atCut, cut)
		var section bytes.Buffer
		w := placement.NewStateWriter(&section)
		cutP.(placement.Snapshotter).WriteState(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		fresh := build(&atFresh)
		if err := fresh.(placement.Snapshotter).RestoreState(placement.NewStateReader(section.Bytes())); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		atFresh = cut
		place(fresh, &atFresh, n)

		idx := func(p placement.Placer) *core.T2SIndex { return p.(interface{ Scores() *core.T2SIndex }).Scores() }
		wantTxs, _ := idx(ref).Retired()
		gotTxs, _ := idx(fresh).Retired()
		if wantTxs != n-1 || gotTxs != wantTxs || idx(fresh).SlabLen() != idx(ref).SlabLen() {
			t.Fatalf("%s: restored placer retired %d and holds %d slab entries; the uninterrupted one %d and %d (want %d retired)",
				strategy, gotTxs, idx(fresh).SlabLen(), wantTxs, idx(ref).SlabLen(), n-1)
		}
		for v := range n {
			if a, b := fresh.Assignment().ShardOf(txgraph.Node(v)), ref.Assignment().ShardOf(txgraph.Node(v)); a != b {
				t.Fatalf("%s: transaction %d in shard %d, uninterrupted %d", strategy, v, a, b)
			}
		}
	}
}

// TestMetisPartitionBalance: the partition the Metis strategy replays
// covers the stream, is deterministic per seed, and keeps every part
// within the (1+ε) bound T2S and Greedy cap shards at.
func TestMetisPartitionBalance(t *testing.T) {
	const n, k = 4000, 8
	cfg := dataset.DefaultConfig()
	cfg.N = n
	d, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	part, err := MetisPartition(d, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := MetisPartition(d, k, 1)
	if err != nil || !slices.Equal(part, again) {
		t.Fatalf("a second partition with the same seed differs (%v)", err)
	}
	sizes := make([]int, k)
	for _, s := range part {
		sizes[s]++
	}
	if bound := int(float64(n) / k * (1 + core.DefaultCapacityEps)); len(part) != n || slices.Max(sizes) > bound {
		t.Fatalf("%d parts for %d transactions, sizes %v, bound %d", len(part), n, sizes, bound)
	}
}
