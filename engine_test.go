package optchain_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"optchain"
	"optchain/internal/placement"
	"optchain/internal/registry"
)

// fastEngineOpts shrinks the simulation of an n-transaction bitcoin stream
// for test speed: tiny committees and blocks, high verify cost so consensus
// stays realistic.
func fastEngineOpts(n int, strategy string, shards int, rate float64) []optchain.Option {
	return []optchain.Option{
		optchain.WithTxs(n),
		optchain.WithStrategy(strategy),
		optchain.WithShards(shards),
		optchain.WithValidators(8),
		optchain.WithRate(rate),
		optchain.WithSeed(7),
		optchain.WithShardTuning(optchain.ShardConfig{
			BlockTxs:     100,
			MaxBlockWait: 500 * time.Millisecond,
		}),
	}
}

func TestEngineOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []optchain.Option
		want error
	}{
		{"zero shards", []optchain.Option{optchain.WithShards(0)}, optchain.ErrBadOption},
		{"more shards than a 2-byte id names", []optchain.Option{optchain.WithShards(65536)}, optchain.ErrBadOption},
		{"negative rate", []optchain.Option{optchain.WithRate(-5)}, optchain.ErrBadOption},
		{"empty strategy", []optchain.Option{optchain.WithStrategy("")}, optchain.ErrBadOption},
		{"bad alpha", []optchain.Option{optchain.WithAlpha(1.5)}, optchain.ErrBadOption},
		{"NaN alpha", []optchain.Option{optchain.WithAlpha(math.NaN())}, optchain.ErrBadOption},
		{"negative weight", []optchain.Option{optchain.WithL2SWeight(-1)}, optchain.ErrBadOption},
		{"NaN weight", []optchain.Option{optchain.WithL2SWeight(math.NaN())}, optchain.ErrBadOption},
		{"infinite weight", []optchain.Option{optchain.WithL2SWeight(math.Inf(1))}, optchain.ErrBadOption},
		{"negative txs", []optchain.Option{optchain.WithTxs(-1)}, optchain.ErrBadOption},
		{"zero progress cadence", []optchain.Option{optchain.WithProgressEvery(0)}, optchain.ErrBadOption},
		{"progress cadence without callback", []optchain.Option{
			optchain.WithProgressEvery(time.Second)}, optchain.ErrBadOption},
		{"bad partition entry", []optchain.Option{optchain.WithMetisPartition([]int32{0, -2})}, optchain.ErrBadShard},
		{"partition entry beyond shard count", []optchain.Option{
			optchain.WithMetisPartition([]int32{0, 20}), optchain.WithShards(4)}, optchain.ErrBadShard},
		{"unknown strategy", []optchain.Option{optchain.WithStrategy("definitely-not-registered")}, optchain.ErrUnknownStrategy},
		{"unknown protocol", []optchain.Option{optchain.WithProtocol("definitely-not-registered")}, optchain.ErrUnknownProtocol},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := optchain.New(tc.opts...); !errors.Is(err, tc.want) {
				t.Fatalf("New() error = %v, want %v", err, tc.want)
			}
		})
	}

	// Valid options construct eagerly with no error.
	if _, err := optchain.New(optchain.WithShards(65535)); err != nil {
		t.Fatalf("the largest shard count: %v", err)
	}
	eng, err := optchain.New(optchain.WithStrategy("OptChain"), optchain.WithShards(16))
	if err != nil {
		t.Fatal(err)
	}
	if eng.Strategy() != "OptChain" || eng.Shards() != 16 || eng.Protocol() != "omniledger" {
		t.Fatalf("engine config mismatch: %s/%s/%d", eng.Strategy(), eng.Protocol(), eng.Shards())
	}
}

func TestEngineStrategyNamesCaseInsensitive(t *testing.T) {
	if _, err := optchain.New(optchain.WithStrategy("optchain"), optchain.WithProtocol("OmniLedger")); err != nil {
		t.Fatalf("case-insensitive lookup failed: %v", err)
	}
}

func TestRegistryEnumerationAndDuplicates(t *testing.T) {
	strategies := optchain.Strategies()
	for _, want := range []string{"Greedy", "Metis", "OmniLedger", "OptChain", "T2S"} {
		found := false
		for _, s := range strategies {
			if s == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("built-in strategy %q missing from %v", want, strategies)
		}
	}
	protocols := optchain.Protocols()
	if len(protocols) < 2 {
		t.Fatalf("protocols = %v", protocols)
	}

	// Duplicate detection is case-insensitive.
	err := optchain.RegisterStrategy("OPTCHAIN", func(optchain.StrategyContext) (optchain.Placer, error) {
		return nil, nil
	})
	if !errors.Is(err, optchain.ErrBadRegistration) {
		t.Fatalf("duplicate strategy name: %v, want ErrBadRegistration", err)
	}
	err = optchain.RegisterProtocol("omniledger", func(optchain.ProtocolContext) (optchain.CommitBackend, error) {
		return nil, nil
	})
	if !errors.Is(err, optchain.ErrBadRegistration) {
		t.Fatalf("duplicate protocol name: %v, want ErrBadRegistration", err)
	}
}

// affinityPlacer is a trivial custom strategy: everything to shard 0.
type affinityPlacer struct {
	a *optchain.Assignment
}

func (p *affinityPlacer) Place(u optchain.Node, inputs []optchain.Node) int {
	p.a.Place(u, 0)
	return 0
}
func (p *affinityPlacer) Assignment() *optchain.Assignment { return p.a }
func (p *affinityPlacer) Name() string                     { return "test-affinity" }

func TestCustomStrategySelectableByName(t *testing.T) {
	err := optchain.RegisterStrategy("test-affinity", func(ctx optchain.StrategyContext) (optchain.Placer, error) {
		return &affinityPlacer{a: optchain.NewAssignment(ctx.K, ctx.N)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	d := smallData(t)

	// Streaming mode resolves it by name.
	eng, err := optchain.New(
		optchain.WithStrategy("test-affinity"),
		optchain.WithShards(4),
		optchain.WithStreamCapacity(d.Len()),
	)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng.PlaceStream(optchain.DatasetStream(d))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Placed != d.Len() || stats.CrossFraction != 0 {
		t.Fatalf("affinity stats = %+v", stats)
	}
	if stats.ShardCounts[0] != int64(d.Len()) {
		t.Fatalf("shard 0 got %d of %d", stats.ShardCounts[0], d.Len())
	}

	// The full simulation resolves it by the same name — the path
	// cmd/optchain-sim -strategy takes.
	eng2, err := optchain.New(fastEngineOpts(1500, "test-affinity", 4, 500)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1500 {
		t.Fatalf("committed %d of 1500", res.Committed)
	}
	if res.Placer != "test-affinity" {
		t.Fatalf("result placer = %q", res.Placer)
	}
}

// smallDataset materializes the first n transactions of the calibrated
// bitcoin stream at seed 1.
func smallDataset(t *testing.T, n int) *optchain.Dataset {
	t.Helper()
	d, err := optchain.MaterializeWorkload("bitcoin", optchain.WorkloadParams{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestEngineRunEndToEnd(t *testing.T) {
	const n = 3000
	eng, err := optchain.New(fastEngineOpts(n, "OptChain", 4, 500)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != n {
		t.Fatalf("committed %d of %d", res.Committed, n)
	}
	snap := eng.MetricsSnapshot()
	if !snap.Done || snap.Committed != n {
		t.Fatalf("final snapshot = %+v", snap)
	}
}

func TestEngineRunCancellationMidRun(t *testing.T) {
	const n = 4000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var ticks atomic.Int64
	opts := append(fastEngineOpts(n, "OptChain", 4, 200),
		optchain.WithProgressEvery(time.Second),
		optchain.WithProgress(func(s optchain.MetricsSnapshot) {
			// Cancel from inside the run, once it is demonstrably mid-flight.
			if ticks.Add(1) == 3 {
				cancel()
			}
		}),
	)
	eng, err := optchain.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel: res=%v err=%v", res, err)
	}
	snap := eng.MetricsSnapshot()
	if snap.SimTime <= 0 {
		t.Fatalf("no progress observed before cancellation: %+v", snap)
	}
	if snap.Committed >= n {
		t.Fatalf("run finished despite mid-run cancel (committed %d)", snap.Committed)
	}

	// The engine is reusable after a cancelled run.
	res, err = eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != n {
		t.Fatalf("rerun committed %d of %d", res.Committed, n)
	}
}

func TestEngineRunDeadline(t *testing.T) {
	eng, err := optchain.New(fastEngineOpts(3000, "OptChain", 4, 300)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done() // the sim can outrun a 1 ms deadline; wait for expiry
	if _, err := eng.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run under expired deadline: %v", err)
	}
}

func TestEngineRejectsConcurrentRuns(t *testing.T) {
	var second atomic.Value
	var eng *optchain.Engine
	opts := append(fastEngineOpts(1500, "OptChain", 2, 500),
		optchain.WithProgressEvery(time.Second),
		optchain.WithProgress(func(s optchain.MetricsSnapshot) {
			if second.Load() == nil {
				_, err := eng.Run(context.Background())
				second.Store(fmt.Sprintf("%v", err))
			}
		}),
	)
	eng, err := optchain.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := second.Load(); got != fmt.Sprintf("%v", optchain.ErrRunning) {
		t.Fatalf("concurrent Run error = %v", got)
	}
}

func TestPlaceStreamMatchesBatchCrossFraction(t *testing.T) {
	d := smallData(t)
	const k = 8

	for _, strategy := range []string{"OptChain", "T2S", "Greedy", "OmniLedger"} {
		eng, err := optchain.New(
			optchain.WithStrategy(strategy),
			optchain.WithShards(k),
			optchain.WithStreamCapacity(d.Len()),
		)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := eng.PlaceStream(optchain.DatasetStream(d))
		if err != nil {
			t.Fatal(err)
		}

		// The reference: the bare registry strategy driven directly, with no
		// Engine between the stream and the placer.
		batch, err := registry.NewStrategy(strategy, registry.StrategyContext{
			K: k, N: d.Len(),
			OutCounts: func(v optchain.Node) int { return d.NumOutputs(int(v)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		var cc placement.CrossCounter
		var buf []optchain.Node
		for i := 0; i < d.Len(); i++ {
			buf = d.InputTxNodes(i, buf)
			cc.Observe(batch.Assignment(), buf, batch.Place(optchain.Node(i), buf))
		}
		frac := cc.Fraction()

		if stats.Placed != d.Len() {
			t.Fatalf("%s: placed %d of %d", strategy, stats.Placed, d.Len())
		}
		if stats.CrossFraction != frac {
			t.Fatalf("%s: streaming %.6f != batch %.6f", strategy, stats.CrossFraction, frac)
		}
		// Decision-for-decision equivalence, not just the aggregate.
		asn := eng.Assignment()
		basn := batch.Assignment()
		for i := 0; i < d.Len(); i++ {
			if asn.ShardOf(optchain.Node(i)) != basn.ShardOf(optchain.Node(i)) {
				t.Fatalf("%s: tx %d placed in %d (stream) vs %d (batch)",
					strategy, i, asn.ShardOf(optchain.Node(i)), basn.ShardOf(optchain.Node(i)))
			}
		}
	}
}

func TestEnginePlaceValidatesInputs(t *testing.T) {
	eng, err := optchain.New(
		optchain.WithStrategy("OptChain"),
		optchain.WithShards(4),
		optchain.WithStreamCapacity(16),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Place(optchain.StreamTx{Inputs: []int{0}}); !errors.Is(err, optchain.ErrBadInput) {
		t.Fatalf("forward reference error = %v", err)
	}
	if _, err := eng.Place(optchain.StreamTx{Inputs: []int{-1}}); !errors.Is(err, optchain.ErrBadInput) {
		t.Fatalf("negative input error = %v", err)
	}
	s, err := eng.Place(optchain.StreamTx{Outputs: 2}) // coinbase
	if err != nil {
		t.Fatal(err)
	}
	if s < 0 || s >= 4 {
		t.Fatalf("shard %d out of range", s)
	}
	// Duplicated inputs are tolerated (one tx spending two outputs of the
	// same parent).
	if _, err := eng.Place(optchain.StreamTx{Inputs: []int{0, 0}}); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Placed; got != 2 {
		t.Fatalf("placed = %d", got)
	}
}

// TestEngineRefusesImpossibleOutputCounts: a negative output count, or one
// past what an int32 holds, is refused with ErrBadInput naming the stream
// position, by Place and inside a PlaceBatch, and leaves the engine as it
// was: the next transaction takes the refused one's position, and the
// engine decides, counts and snapshots as one that never saw it.
func TestEngineRefusesImpossibleOutputCounts(t *testing.T) {
	huge := int64(3_000_000_000)
	for _, bad := range []int{-3, int(huge)} {
		mk := func() *optchain.Engine {
			e, err := optchain.New(optchain.WithShards(4), optchain.WithStreamCapacity(16))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.PlaceBatch([]optchain.StreamTx{{Outputs: 2}, {Inputs: []int{0}, Outputs: 1}}, nil); err != nil {
				t.Fatal(err)
			}
			return e
		}
		eng, ref := mk(), mk()
		refused := func(err error, u int) {
			t.Helper()
			want := fmt.Sprintf("%v: transaction %d declares %d outputs", optchain.ErrBadInput, u, bad)
			if !errors.Is(err, optchain.ErrBadInput) || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("%d outputs: %v, want ErrBadInput beginning %q", bad, err, want)
			}
		}
		_, err := eng.Place(optchain.StreamTx{Inputs: []int{0}, Outputs: bad})
		refused(err, 2)
		if st := eng.Stats(); st.Placed != 2 {
			t.Fatalf("%d outputs: %d placed after the refusal, want 2", bad, st.Placed)
		}
		shards, err := eng.PlaceBatch([]optchain.StreamTx{{Inputs: []int{1}, Outputs: 1}, {Inputs: []int{0}, Outputs: bad}}, nil)
		refused(err, 3)
		want, errRef := ref.PlaceBatch([]optchain.StreamTx{{Inputs: []int{1}, Outputs: 1}}, nil)
		if errRef != nil || len(shards) != 1 || shards[0] != want[0] {
			t.Fatalf("%d outputs: the batch placed %v before its refusal, an engine without it %v (%v)", bad, shards, want, errRef)
		}
		next := optchain.StreamTx{Inputs: []int{0, 2}, Outputs: 1}
		a, errA := eng.Place(next)
		b, errB := ref.Place(next)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("%d outputs: the next transaction placed in %d (%v), without the refusals in %d (%v)", bad, a, errA, b, errB)
		}
		if got, want := eng.Stats(), ref.Stats(); got.Placed != 4 || got.RetiredTxs != want.RetiredTxs || got.SlabEntries != want.SlabEntries || got.Cross != want.Cross {
			t.Fatalf("%d outputs: stats %+v, without the refusals %+v", bad, got, want)
		}
		var snapA, snapB bytes.Buffer
		if err := eng.WriteSnapshot(&snapA); err != nil {
			t.Fatal(err)
		}
		if err := ref.WriteSnapshot(&snapB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snapA.Bytes(), snapB.Bytes()) {
			t.Fatalf("%d outputs: the snapshot differs from an engine's that never saw the refused transactions", bad)
		}
	}
}

// badShardPlacer returns an out-of-range shard without recording it —
// the worst-behaved custom strategy the Engine must survive.
type badShardPlacer struct{ a *optchain.Assignment }

func (p *badShardPlacer) Place(u optchain.Node, inputs []optchain.Node) int { return 99 }
func (p *badShardPlacer) Assignment() *optchain.Assignment                  { return p.a }
func (p *badShardPlacer) Name() string                                      { return "test-badshard" }

func TestEngineGuardsMisbehavingStrategies(t *testing.T) {
	err := optchain.RegisterStrategy("test-badshard", func(ctx optchain.StrategyContext) (optchain.Placer, error) {
		return &badShardPlacer{a: optchain.NewAssignment(ctx.K, ctx.N)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := optchain.New(optchain.WithStrategy("test-badshard"), optchain.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Place(optchain.StreamTx{}); !errors.Is(err, optchain.ErrBadShard) {
		t.Fatalf("bad shard error = %v", err)
	}

	// A Metis replay running past its partition must error, not panic.
	meng, err := optchain.New(
		optchain.WithStrategy("Metis"),
		optchain.WithShards(2),
		optchain.WithMetisPartition([]int32{0, 1}),
		optchain.WithStreamCapacity(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := meng.Place(optchain.StreamTx{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := meng.Place(optchain.StreamTx{}); err == nil {
		t.Fatal("exhausted partition accepted")
	}
}

func TestEngineRunGeneratesDefaultDataset(t *testing.T) {
	// The acceptance-criteria construction: no dataset supplied; Run
	// generates one. Kept fast via WithTxs and small committees.
	eng, err := optchain.New(
		optchain.WithStrategy("OptChain"),
		optchain.WithShards(16),
		optchain.WithTxs(1500),
		optchain.WithValidators(4),
		optchain.WithRate(500),
		optchain.WithShardTuning(optchain.ShardConfig{
			BlockTxs:     100,
			MaxBlockWait: 500 * time.Millisecond,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 1500 {
		t.Fatalf("committed %d of 1500", res.Committed)
	}
}

func TestEngineRunMetisAutoPartition(t *testing.T) {
	const n = 1500
	eng, err := optchain.New(fastEngineOpts(n, "Metis", 4, 500)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != n {
		t.Fatalf("committed %d of %d", res.Committed, n)
	}
}

func TestEngineRunPreCancelled(t *testing.T) {
	eng, err := optchain.New(fastEngineOpts(2000, "OptChain", 4, 500)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: %v", err)
	}
}

// WithL2SWeight(0) is accepted and means the default weight, not "no L2S
// term": 64 coinbase transactions, which only the latency term and the
// tallies can tell apart, go where the default and an explicit 0.01 send
// them, and never to the shard whose telemetry says 100 s.
func TestL2SWeightZeroMeansDefault(t *testing.T) {
	tel := optchain.StaticTelemetry{Comm: []float64{10, 10, 10, 10}, Verify: []float64{0.5, 0.5, 0.5, 0.01}}
	place := func(opts ...optchain.Option) []int {
		eng, err := optchain.New(append([]optchain.Option{optchain.WithShards(4), optchain.WithTelemetry(tel)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		shards, err := eng.PlaceBatch(make([]optchain.StreamTx, 64), nil)
		if err != nil {
			t.Fatal(err)
		}
		return shards
	}
	byDefault := place()
	if zero := place(optchain.WithL2SWeight(0)); !slices.Equal(zero, byDefault) {
		t.Fatalf("WithL2SWeight(0) placed %v, the default weight %v", zero, byDefault)
	}
	if explicit := place(optchain.WithL2SWeight(0.01)); !slices.Equal(explicit, byDefault) {
		t.Fatalf("WithL2SWeight(0.01) placed %v, the default weight %v", explicit, byDefault)
	}
	if slices.Contains(byDefault, 3) {
		t.Fatalf("the slow shard was chosen: %v", byDefault)
	}
}

// placeChain places an n-transaction chain (each spending the one before)
// on 4 shards and returns the engine's statistics.
func placeChain(t *testing.T, strategy string, n int, opts ...optchain.Option) optchain.PlacementStats {
	t.Helper()
	eng, err := optchain.New(append([]optchain.Option{optchain.WithShards(4), optchain.WithStrategy(strategy)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	txs := make([]optchain.StreamTx, n)
	for i := range txs {
		txs[i].Outputs = 1
		if i > 0 {
			txs[i].Inputs = []int{i - 1}
		}
	}
	if _, err := eng.PlaceBatch(txs, nil); err != nil {
		t.Fatal(err)
	}
	return eng.Stats()
}

// The capacity-bounded strategies take their bound from the larger of the
// stream-length hint and the transactions placed so far plus one. Without a
// hint the bound used to be 1 per shard, so after k transactions every
// decision was the least-loaded fallback: a chain went round-robin (cross
// 0.975 at 40 transactions). Now the bound grows with the stream. A short
// chain still has to leave a shard that holds its (1+ε)·n/k share, but a
// long one stays in runs; a hint that covers the stream decides as before.
func TestCapacityBoundGrowsWithoutHint(t *testing.T) {
	for _, strategy := range []string{"T2S", "Greedy"} {
		if st := placeChain(t, strategy, 40); math.Abs(st.CrossFraction-0.9) > 1e-9 {
			t.Errorf("%s, 40-chain without a hint: cross %.3f, want 0.900", strategy, st.CrossFraction)
		}
		st := placeChain(t, strategy, 4000)
		if st.CrossFraction > 0.04 {
			t.Errorf("%s, 4000-chain without a hint: cross %.3f, want <= 0.04", strategy, st.CrossFraction)
		}
		if limit := int64(4000 * 1.1 / 4); slices.Max(st.ShardCounts) > limit {
			t.Errorf("%s, 4000-chain without a hint: shards %v exceed %d", strategy, st.ShardCounts, limit)
		}
		if st := placeChain(t, strategy, 40, optchain.WithStreamCapacity(1000)); st.Cross != 0 {
			t.Errorf("%s, 40-chain with a 1000 hint: %d cross, want 0", strategy, st.Cross)
		}
	}
}
