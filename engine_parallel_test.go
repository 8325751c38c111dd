package optchain_test

import (
	"errors"
	"testing"

	"optchain"
)

// WithParallelism(1) makes bit-identical decisions to the engine built
// without it, for every built-in online strategy, whether the stream goes
// through PlaceStream or one PlaceBatch call.
func TestParallelismOneMatchesSerial(t *testing.T) {
	d := smallData(t)
	txs := collectStream(d)
	const k = 8

	for _, strategy := range []string{"OptChain", "T2S", "Greedy", "OmniLedger"} {
		newEngine := func(opts ...optchain.Option) *optchain.Engine {
			eng, err := optchain.New(append([]optchain.Option{
				optchain.WithStrategy(strategy),
				optchain.WithShards(k),
				optchain.WithStreamCapacity(d.Len()),
			}, opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}

		serial := newEngine()
		want, err := serial.PlaceBatch(txs, nil)
		if err != nil {
			t.Fatalf("%s: serial PlaceBatch: %v", strategy, err)
		}

		par := newEngine(optchain.WithParallelism(1))
		st, err := par.PlaceStream(optchain.DatasetStream(d))
		if err != nil {
			t.Fatalf("%s: PlaceStream with WithParallelism(1): %v", strategy, err)
		}
		asn := par.Assignment()
		for i := range want {
			if got := asn.ShardOf(optchain.Node(i)); got != want[i] {
				t.Fatalf("%s: decision %d differs: WithParallelism(1)=%d serial=%d", strategy, i, got, want[i])
			}
		}
		ss := serial.Stats()
		if st.Placed != ss.Placed || st.Cross != ss.Cross {
			t.Fatalf("%s: stats diverge: WithParallelism(1)=%+v serial=%+v", strategy, st, ss)
		}
	}
}

// Placement is serial whatever WithParallelism asks for, so a 4-worker
// engine's cross-shard fraction drifts from the plain engine's by exactly
// nothing, and two such runs make the same decisions.
func TestParallelQualityDriftBounded(t *testing.T) {
	d := smallData(t)
	const k = 8

	serial, err := optchain.New(optchain.WithShards(k), optchain.WithStreamCapacity(d.Len()))
	if err != nil {
		t.Fatal(err)
	}
	ss, err := serial.PlaceStream(optchain.DatasetStream(d))
	if err != nil {
		t.Fatal(err)
	}

	newPar := func() (*optchain.Engine, optchain.PlacementStats) {
		eng, err := optchain.New(
			optchain.WithShards(k),
			optchain.WithStreamCapacity(d.Len()),
			optchain.WithParallelism(4),
		)
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.PlaceStream(optchain.DatasetStream(d))
		if err != nil {
			t.Fatal(err)
		}
		return eng, st
	}
	par, sp := newPar()
	if sp.Placed != ss.Placed {
		t.Fatalf("WithParallelism(4) placed %d, serial %d", sp.Placed, ss.Placed)
	}
	if sp.Cross != ss.Cross || sp.CrossFraction != ss.CrossFraction {
		t.Fatalf("cross fraction drift: serial %.4f (%d), WithParallelism(4) %.4f (%d)",
			ss.CrossFraction, ss.Cross, sp.CrossFraction, sp.Cross)
	}

	par2, sp2 := newPar()
	if sp2.Cross != sp.Cross {
		t.Fatalf("identical WithParallelism(4) runs diverge: %+v vs %+v", sp, sp2)
	}
	a1, a2 := par.Assignment(), par2.Assignment()
	for u := 0; u < sp.Placed; u++ {
		if a1.ShardOf(optchain.Node(u)) != a2.ShardOf(optchain.Node(u)) {
			t.Fatalf("decision %d differs between identical WithParallelism(4) runs", u)
		}
	}
}

// An engine built with WithParallelism keeps the partial-failure contract:
// a bad transaction mid-batch places the valid prefix, reports the absolute
// position, and leaves the engine usable.
func TestParallelPartialFailure(t *testing.T) {
	eng, err := optchain.New(
		optchain.WithShards(4),
		optchain.WithParallelism(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	txs := []optchain.StreamTx{
		{Outputs: 2},
		{Inputs: []int{0}},
		{Inputs: []int{99}}, // forward reference: fails
		{Inputs: []int{0, 1}},
	}
	shards, err := eng.PlaceBatch(txs, nil)
	if !errors.Is(err, optchain.ErrBadInput) {
		t.Fatalf("error = %v, want ErrBadInput", err)
	}
	if len(shards) != 2 {
		t.Fatalf("placed %d before the failure, want 2", len(shards))
	}
	if st := eng.Stats(); st.Placed != 2 {
		t.Fatalf("stats after partial batch = %+v", st)
	}
	if _, err := eng.Place(optchain.StreamTx{Inputs: []int{0, 1}}); err != nil {
		t.Fatalf("Place after failed batch: %v", err)
	}
}

// Metis replays its fixed partition under WithParallelism like any other
// strategy: the option changes no decision.
func TestParallelismFallsBackForMetis(t *testing.T) {
	part := make([]int32, 64)
	for i := range part {
		part[i] = int32(i % 4)
	}
	eng, err := optchain.New(
		optchain.WithStrategy("Metis"),
		optchain.WithShards(4),
		optchain.WithMetisPartition(part),
		optchain.WithParallelism(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	txs := make([]optchain.StreamTx, len(part))
	for i := 1; i < len(txs); i++ {
		txs[i].Inputs = []int{i - 1}
	}
	shards, err := eng.PlaceBatch(txs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range shards {
		if s != int(part[i]) {
			t.Fatalf("decision %d = %d, want partition value %d", i, s, part[i])
		}
	}
}

// Option validation: negative parallelism fails New eagerly with
// ErrBadOption; zero is accepted.
func TestParallelOptionValidation(t *testing.T) {
	if _, err := optchain.New(optchain.WithParallelism(-1)); !errors.Is(err, optchain.ErrBadOption) {
		t.Fatalf("WithParallelism(-1): err = %v, want ErrBadOption", err)
	}
	if _, err := optchain.New(optchain.WithParallelism(0)); err != nil {
		t.Fatalf("WithParallelism(0) rejected: %v", err)
	}
}
