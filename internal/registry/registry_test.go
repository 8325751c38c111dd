package registry

import (
	"errors"
	"strings"
	"testing"

	"optchain/internal/chain"
	"optchain/internal/core"
	"optchain/internal/des"
	"optchain/internal/placement"
	"optchain/internal/simnet"
	"optchain/internal/txgraph"
)

func TestRegisterRejectsBadEntries(t *testing.T) {
	strategy := func(StrategyContext) (placement.Placer, error) { return placement.NewRandom(1, 0), nil }
	protocol := func(ProtocolContext) (CommitBackend, error) { return nil, nil }
	cases := []struct {
		what      string
		got, want error
	}{
		{"fresh strategy", RegisterStrategy("registry-test-fresh", strategy), nil},
		{"fresh protocol", RegisterProtocol("registry-test-fresh", protocol), nil},
		{"strategy re-registered under another casing", RegisterStrategy("Registry-Test-FRESH", strategy), ErrDuplicateName},
		{"protocol re-registered under another casing", RegisterProtocol("Registry-Test-FRESH", protocol), ErrDuplicateName},
		{"built-in strategy, padded", RegisterStrategy(" optchain ", strategy), ErrDuplicateName},
		{"built-in protocol, padded", RegisterProtocol(" OmniLedger ", protocol), ErrDuplicateName},
		{"empty strategy name", RegisterStrategy("", strategy), ErrEmptyName},
		{"blank protocol name", RegisterProtocol("   ", protocol), ErrEmptyName},
		{"nil strategy factory", RegisterStrategy("registry-test-nil", nil), ErrNilFactory},
		{"nil protocol factory", RegisterProtocol("registry-test-nil", nil), ErrNilFactory},
	}
	for _, c := range cases {
		if !errors.Is(c.got, c.want) {
			t.Errorf("%s: err = %v, want %v", c.what, c.got, c.want)
		}
	}
	if !HasStrategy("REGISTRY-test-fresh") || !HasProtocol("registry-TEST-fresh") {
		t.Error("a registered name does not resolve case-insensitively")
	}
	if HasStrategy("registry-test-nil") || HasProtocol("registry-test-nil") {
		t.Error("a rejected registration left an entry behind")
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
			Net:    simnet.New(sim, simnet.Config{}),
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
