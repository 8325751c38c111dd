package optchain_test

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"optchain"
)

func TestWithWorkloadValidation(t *testing.T) {
	if _, err := optchain.New(optchain.WithWorkload("no-such-scenario", nil)); !errors.Is(err, optchain.ErrUnknownWorkload) {
		t.Fatalf("unknown workload error = %v", err)
	}
	if _, err := optchain.New(optchain.WithWorkload("", nil)); !errors.Is(err, optchain.ErrBadOption) {
		t.Fatalf("empty workload error = %v", err)
	}
	if _, err := optchain.New(optchain.WithWorkload("hotspot", map[string]float64{"bogus": 1})); err == nil {
		t.Fatal("unknown knob accepted")
	}
	d, err := optchain.GenerateDataset(optchain.DatasetConfig{N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := optchain.New(
		optchain.WithDataset(d),
		optchain.WithWorkload("hotspot", nil),
	); !errors.Is(err, optchain.ErrBadOption) {
		t.Fatalf("dataset+workload conflict error = %v", err)
	}
}

func TestWorkloadsRegistered(t *testing.T) {
	names := optchain.Workloads()
	for _, n := range []string{"bitcoin", "hotspot", "burst", "adversarial", "drift", "mix", "replay"} {
		if !slices.Contains(names, n) {
			t.Errorf("Workloads() = %v, missing %q", names, n)
		}
	}
	// replay needs a trace-file argument, so it is not standalone.
	if slices.Contains(optchain.StandaloneWorkloads(), "replay") {
		t.Fatal("StandaloneWorkloads includes replay")
	}
	// A name the spec grammar would split ("team" with knob "a") could
	// never be resolved, so it is refused at registration.
	f := func(optchain.WorkloadParams) (optchain.WorkloadSource, error) { return nil, nil }
	if err := optchain.RegisterWorkload("team:a", f); !errors.Is(err, optchain.ErrBadRegistration) {
		t.Fatalf(`RegisterWorkload("team:a") = %v, want ErrBadRegistration`, err)
	}
	if slices.Contains(optchain.Workloads(), "team:a") {
		t.Fatal("a refused name is listed")
	}
}

// TestWithWorkloadSpec: WithWorkload accepts full mix/replay specs
// unchanged, composing scenarios end-to-end through the Engine.
func TestWithWorkloadSpec(t *testing.T) {
	const n = 2000
	eng, err := optchain.New(
		optchain.WithWorkload("mix:bitcoin=0.7,hotspot=0.2,adversarial=0.1", nil),
		optchain.WithShards(8),
		optchain.WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	st, err := eng.PlaceWorkload(n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Placed != n {
		t.Fatalf("placed %d of %d", st.Placed, n)
	}
	// A bad component inside the spec fails New eagerly with the registry
	// listing, not at Run.
	_, err = optchain.New(optchain.WithWorkload("mix:bitcoiin=0.7,hotspot=0.3", nil))
	if err == nil || !errors.Is(err, optchain.ErrUnknownWorkload) {
		t.Fatalf("bad component error = %v", err)
	}
	if !strings.Contains(err.Error(), "bitcoiin") || !strings.Contains(err.Error(), "bitcoin") {
		t.Fatalf("error %q does not name the token and the registry", err)
	}
}

// TestPlaceWorkloadStreams: every standalone scenario (replay needs a
// trace-file argument) streams through PlaceBatch on a fresh engine and
// places the full stream.
func TestPlaceWorkloadStreams(t *testing.T) {
	const n = 3000
	for _, name := range optchain.StandaloneWorkloads() {
		eng, err := optchain.New(
			optchain.WithWorkload(name, nil),
			optchain.WithShards(8),
			optchain.WithSeed(3),
		)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st, err := eng.PlaceWorkload(n)
		if err != nil {
			t.Fatalf("%s: PlaceWorkload: %v", name, err)
		}
		if st.Placed != n {
			t.Fatalf("%s: placed %d of %d", name, st.Placed, n)
		}
		var total int64
		for _, c := range st.ShardCounts {
			total += c
		}
		if total != int64(n) {
			t.Fatalf("%s: shard counts sum to %d", name, total)
		}
	}
}

// TestPlaceWorkloadWithoutConfig: PlaceWorkload requires WithWorkload.
func TestPlaceWorkloadWithoutConfig(t *testing.T) {
	eng, err := optchain.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PlaceWorkload(100); !errors.Is(err, optchain.ErrBadOption) {
		t.Fatalf("error = %v, want ErrBadOption", err)
	}
}

// TestRunWorkloadEndToEnd: Engine.Run drives a streaming scenario through
// the full simulation without a dataset.
func TestRunWorkloadEndToEnd(t *testing.T) {
	for _, name := range []string{"hotspot", "adversarial"} {
		eng, err := optchain.New(
			optchain.WithWorkload(name, nil),
			optchain.WithShards(4),
			optchain.WithTxs(1500),
			optchain.WithRate(500),
			optchain.WithValidators(8),
			optchain.WithShardTuning(optchain.ShardConfig{
				BlockTxs:     100,
				MaxBlockWait: 500 * time.Millisecond,
			}),
		)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := eng.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: Run: %v", name, err)
		}
		if res.Committed != 1500 {
			t.Fatalf("%s: committed %d of %d", name, res.Committed, res.Total)
		}
	}
}

// TestRunWorkloadMetisRejected: the Metis replay strategy needs a
// materialized dataset; streaming scenarios must be rejected clearly.
func TestRunWorkloadMetisRejected(t *testing.T) {
	eng, err := optchain.New(
		optchain.WithWorkload("hotspot", nil),
		optchain.WithStrategy("Metis"),
		optchain.WithTxs(500),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); !errors.Is(err, optchain.ErrBadOption) {
		t.Fatalf("Metis-over-workload error = %v, want ErrBadOption", err)
	}
}

// TestWorkloadAdversarialBeatsRandomBaseline: the adversarial scenario
// drives the cross-shard fraction far above the bitcoin baseline for the
// same strategy — the scenario lab's reason to exist.
func TestWorkloadAdversarialBeatsRandomBaseline(t *testing.T) {
	cross := func(name string) float64 {
		eng, err := optchain.New(
			optchain.WithWorkload(name, nil),
			optchain.WithShards(8),
			optchain.WithSeed(1),
		)
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.PlaceWorkload(4000)
		if err != nil {
			t.Fatal(err)
		}
		return st.CrossFraction
	}
	adv, btc := cross("adversarial"), cross("bitcoin")
	if adv <= btc {
		t.Fatalf("adversarial cross fraction %.3f <= bitcoin %.3f under OptChain", adv, btc)
	}
	if adv < 0.5 {
		t.Fatalf("adversarial cross fraction %.3f, want >= 0.5", adv)
	}
}

// TestMaxShardShareWithoutTelemetry pins how balanced each placer leaves the
// bitcoin stream at k=16 over 200k transactions without telemetry. OptChain
// has no capacity bound there: with E(j) the same for every shard, Alg. 1 is
// an uncapped T2S argmax and piles ~92% of the stream into one shard. The
// ranges are wide enough for float noise and narrow enough that bounding
// OptChain shows up here as a deliberate diff.
func TestMaxShardShareWithoutTelemetry(t *testing.T) {
	for _, c := range []struct {
		strategy string
		lo, hi   float64
	}{
		{"OptChain", 14.5, 15.0},
		{"T2S", 1.05, 1.1 + 1e-9},
		{"Greedy", 1.0, 1.01},
	} {
		eng, err := optchain.New(optchain.WithShards(16), optchain.WithStrategy(c.strategy),
			optchain.WithWorkload("bitcoin", nil), optchain.WithStreamCapacity(200_000), optchain.WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.PlaceWorkload(200_000)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: max shard share %.4f", c.strategy, st.MaxShardShare)
		if st.MaxShardShare < c.lo || st.MaxShardShare > c.hi {
			t.Errorf("%s: max shard share %.4f, want [%g, %g]", c.strategy, st.MaxShardShare, c.lo, c.hi)
		}
	}
}
