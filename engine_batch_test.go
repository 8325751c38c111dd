package optchain_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"optchain"
)

// collectStream materializes the dataset as StreamTx values.
func collectStream(d *optchain.Dataset) []optchain.StreamTx {
	var txs []optchain.StreamTx
	for tx := range optchain.DatasetStream(d) {
		txs = append(txs, tx)
	}
	return txs
}

// PlaceBatch must make exactly the decisions the equivalent Place sequence
// makes — the strategy state advances identically — for every built-in
// online strategy.
func TestPlaceBatchMatchesPlaceDecisions(t *testing.T) {
	d := smallData(t)
	txs := collectStream(d)
	const k = 8

	for _, strategy := range []string{"OptChain", "T2S", "Greedy", "OmniLedger"} {
		newEngine := func() *optchain.Engine {
			eng, err := optchain.New(
				optchain.WithStrategy(strategy),
				optchain.WithShards(k),
				optchain.WithDataset(d),
			)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}

		one := newEngine()
		var want []int
		for _, tx := range txs {
			s, err := one.Place(tx)
			if err != nil {
				t.Fatalf("%s: Place: %v", strategy, err)
			}
			want = append(want, s)
		}

		batch := newEngine()
		var got, buf []int
		// Uneven chunk sizes exercise batch boundaries.
		for lo := 0; lo < len(txs); {
			hi := lo + 1 + (lo % 97)
			if hi > len(txs) {
				hi = len(txs)
			}
			var err error
			buf, err = batch.PlaceBatch(txs[lo:hi], buf)
			if err != nil {
				t.Fatalf("%s: PlaceBatch: %v", strategy, err)
			}
			got = append(got, buf...)
			lo = hi
		}

		if len(got) != len(want) {
			t.Fatalf("%s: placed %d via batch, %d via Place", strategy, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: decision %d differs: batch=%d place=%d", strategy, i, got[i], want[i])
			}
		}

		sa, sb := one.Stats(), batch.Stats()
		if sa.Placed != sb.Placed || sa.Cross != sb.Cross || sa.CrossFraction != sb.CrossFraction {
			t.Fatalf("%s: stats diverge: place=%+v batch=%+v", strategy, sa, sb)
		}
	}
}

// A failing transaction mid-batch keeps the placements before it (exactly
// like a failing Place call); the error names the absolute stream position
// and len(result) gives the batch offset.
func TestPlaceBatchPartialFailure(t *testing.T) {
	eng, err := optchain.New(optchain.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	txs := []optchain.StreamTx{
		{Outputs: 2},          // coinbase, ok
		{Inputs: []int{0}},    // ok
		{Inputs: []int{99}},   // forward reference: fails
		{Inputs: []int{0, 1}}, // never reached
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
	// The engine remains usable: the failed transaction was rolled back.
	if _, err := eng.Place(optchain.StreamTx{Inputs: []int{0, 1}}); err != nil {
		t.Fatalf("Place after failed batch: %v", err)
	}
}

// The result slice is reused across batches when the caller provides one.
func TestPlaceBatchReusesResultSlice(t *testing.T) {
	eng, err := optchain.New(optchain.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, 0, 64)
	txs := make([]optchain.StreamTx, 16)
	got, err := eng.PlaceBatch(txs, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(txs) || cap(got) != cap(buf) {
		t.Fatalf("len=%d cap=%d, want len=%d cap=%d (reused)", len(got), cap(got), len(txs), cap(buf))
	}
}

// wideStream builds a stream whose later transactions name up to 400 earlier
// ones with repeats, raw as a client would send it and with the repeats
// removed by a first-occurrence scan.
func wideStream(n int) (raw, distinct []optchain.StreamTx) {
	rng := rand.New(rand.NewSource(24))
	for u := 0; u < n; u++ {
		var ins, kept []int
		if u > 0 {
			pool := 1 + rng.Intn(u)
			for j := rng.Intn(401); j > 0; j-- {
				ins = append(ins, rng.Intn(pool))
			}
		}
		for _, in := range ins {
			if !slices.Contains(kept, in) {
				kept = append(kept, in)
			}
		}
		raw = append(raw, optchain.StreamTx{Inputs: ins, Outputs: 2})
		distinct = append(distinct, optchain.StreamTx{Inputs: kept, Outputs: 2})
	}
	return raw, distinct
}

// The Engine's input handling against the scan it replaced, on every path
// that has one (Place, PlaceBatch, a two-worker epoch): a stream with wide,
// repetitive input lists is placed as the same stream with the repeats
// already removed, and a list holding a negative, self or forward input is
// refused naming the transaction and the first such input, with nothing
// placed.
func TestEngineDedupesWideInputsAndRefusesAtFirstBadInput(t *testing.T) {
	const n = 500
	raw, distinct := wideStream(n)
	rng := rand.New(rand.NewSource(7))
	for _, path := range []string{"Place", "PlaceBatch", "epoch"} {
		opts := []optchain.Option{optchain.WithShards(16), optchain.WithStreamCapacity(n)}
		if path == "epoch" {
			opts = append(opts, optchain.WithParallelism(2))
		}
		ref, err := optchain.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := optchain.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < n; {
			hi := min(lo+1+rng.Intn(40), n)
			if path == "Place" {
				hi = lo + 1
			}
			if lo > 0 && len(raw[lo].Inputs) > 0 {
				// Poison the first list of the batch at a random position.
				bad := []int{-1, lo, lo + 9}
				ins := raw[lo].Inputs
				at := rng.Intn(len(ins) + 1)
				poisoned := append(slices.Insert(slices.Clone(ins), at, bad[rng.Intn(3)]), bad[rng.Intn(3)])
				want := fmt.Sprintf("%v: transaction %d spends %d", optchain.ErrBadInput, lo, poisoned[at])
				var err error
				if path == "Place" {
					_, err = eng.Place(optchain.StreamTx{Inputs: poisoned})
				} else {
					var placed []int
					placed, err = eng.PlaceBatch([]optchain.StreamTx{{Inputs: poisoned}, raw[lo]}, nil)
					if len(placed) != 0 {
						t.Fatalf("%s: %d transactions placed from a batch whose first is bad", path, len(placed))
					}
				}
				if !errors.Is(err, optchain.ErrBadInput) || err.Error() != want {
					t.Fatalf("%s: transaction %d, bad input at %d: error %v, want %q", path, lo, at, err, want)
				}
			}
			var got, want []int
			if path == "Place" {
				g, err1 := eng.Place(raw[lo])
				w, err2 := ref.Place(distinct[lo])
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				got, want = []int{g}, []int{w}
			} else {
				var err1, err2 error
				got, err1 = eng.PlaceBatch(raw[lo:hi], nil)
				want, err2 = ref.PlaceBatch(distinct[lo:hi], nil)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: transactions [%d, %d) placed in %v, with the repeats removed beforehand in %v", path, lo, hi, got, want)
			}
			lo = hi
		}
		if a, b := eng.Stats(), ref.Stats(); a.Placed != n || a.Cross != b.Cross || a.SlabEntries != b.SlabEntries {
			t.Fatalf("%s: stats %+v, with the repeats removed beforehand %+v", path, a, b)
		}
	}
}

// A 300-input transaction costs no allocation once the Engine's dedupe
// table has seen one that wide: the table is scratch, sized by the widest
// transaction and reused, like the input buffer beside it.
func TestEnginePlaceWideInputsZeroAllocs(t *testing.T) {
	const parents, runs = 300, 200
	eng, err := optchain.New(optchain.WithShards(16), optchain.WithStreamCapacity(parents+2*runs+8))
	if err != nil {
		t.Fatal(err)
	}
	wide := make([]int, 0, 2*parents)
	for i := 0; i < parents; i++ {
		if _, err := eng.Place(optchain.StreamTx{}); err != nil {
			t.Fatal(err)
		}
		wide = append(wide, i, (i*7)%parents)
	}
	tx := optchain.StreamTx{Inputs: wide}
	batch, shards := []optchain.StreamTx{tx}, make([]int, 0, 1)
	place := func() {
		if _, err := eng.Place(tx); err != nil {
			t.Fatal(err)
		}
	}
	placeBatch := func() {
		if _, err := eng.PlaceBatch(batch, shards); err != nil {
			t.Fatal(err)
		}
	}
	place()
	placeBatch()
	if allocs := testing.AllocsPerRun(runs, place); allocs != 0 {
		t.Errorf("Place of a %d-input transaction: %.2f allocs, want 0", len(wide), allocs)
	}
	if allocs := testing.AllocsPerRun(runs, placeBatch); allocs != 0 {
		t.Errorf("PlaceBatch of a %d-input transaction: %.2f allocs, want 0", len(wide), allocs)
	}
}
