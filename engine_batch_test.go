package optchain_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
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
				optchain.WithStreamCapacity(d.Len()),
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

// The Engine's input handling against the scan it replaced, through Place
// and PlaceBatch: a stream with wide, repetitive input lists is placed as
// the same stream with the repeats already removed, and a list holding a
// negative, self or forward input is refused naming the transaction and the
// first such input, with nothing placed.
func TestEngineDedupesWideInputsAndRefusesAtFirstBadInput(t *testing.T) {
	const n = 500
	raw, distinct := wideStream(n)
	rng := rand.New(rand.NewSource(7))
	for _, path := range []string{"Place", "PlaceBatch"} {
		opts := []optchain.Option{optchain.WithShards(16), optchain.WithStreamCapacity(n)}
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

// Concurrent readers of an engine that is placing batches (Stats and
// MetricsSnapshot from other goroutines) must be race-free; run under
// -race in CI.
func TestParallelPlaceBatchRaceStress(t *testing.T) {
	d := smallData(t)
	txs := collectStream(d)
	eng, err := optchain.New(optchain.WithShards(8), optchain.WithStreamCapacity(d.Len()))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_ = eng.MetricsSnapshot()
				_ = eng.Stats()
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}

	var buf []int
	for lo := 0; lo < len(txs); {
		hi := min(lo+256, len(txs))
		if buf, err = eng.PlaceBatch(txs[lo:hi], buf); err != nil {
			close(done)
			wg.Wait()
			t.Fatalf("PlaceBatch: %v", err)
		}
		lo = hi
	}
	close(done)
	wg.Wait()

	if st := eng.Stats(); st.Placed != len(txs) {
		t.Fatalf("placed %d, want %d", st.Placed, len(txs))
	}
}

// WithParallelism is kept for callers that still pass it and changes
// nothing: over several DefaultBatchSize batches of the benchmark's mix-ids
// stream, every accepted worker count makes the decisions, reports the
// Stats and writes the snapshot bytes of an engine built without it. A
// negative count is still refused.
func TestWithParallelismIsANoOp(t *testing.T) {
	const n = 3*optchain.DefaultBatchSize + 100
	run := func(extra ...optchain.Option) ([]int, optchain.PlacementStats, []byte) {
		t.Helper()
		eng, err := optchain.New(append([]optchain.Option{
			optchain.WithShards(16), optchain.WithStreamCapacity(n),
			optchain.WithWorkload(benchmarkSpecs[2], nil),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := eng.PlaceWorkload(n)
		if err != nil {
			t.Fatal(err)
		}
		asn := eng.Assignment()
		decisions := make([]int, st.Placed)
		for i := range decisions {
			decisions[i] = asn.ShardOf(optchain.Node(i))
		}
		var snap bytes.Buffer
		if err := eng.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		return decisions, st, snap.Bytes()
	}
	want, wantStats, wantSnap := run()
	if len(want) != n {
		t.Fatalf("placed %d of %d", len(want), n)
	}
	for _, workers := range []int{0, 1, runtime.NumCPU()} {
		got, stats, snap := run(optchain.WithParallelism(workers))
		if !slices.Equal(got, want) {
			t.Errorf("WithParallelism(%d): decisions differ from the engine without it", workers)
		}
		if !reflect.DeepEqual(stats, wantStats) {
			t.Errorf("WithParallelism(%d): stats %+v, without it %+v", workers, stats, wantStats)
		}
		if !bytes.Equal(snap, wantSnap) {
			t.Errorf("WithParallelism(%d): the snapshot differs from the engine without it", workers)
		}
	}
	if _, err := optchain.New(optchain.WithParallelism(-1)); !errors.Is(err, optchain.ErrBadOption) {
		t.Fatalf("WithParallelism(-1): err = %v, want ErrBadOption", err)
	}
}

// How a stream is cut into PlaceBatch calls never changes a decision:
// PlaceStream's DefaultBatchSize chunks and batches of 1, 7, 333 and more
// than the whole stream place it the same.
func TestBatchSizeDoesNotChangeSerialDecisions(t *testing.T) {
	d := smallDataset(t, 2000)
	txs := collectStream(d)
	newEngine := func() *optchain.Engine {
		eng, err := optchain.New(optchain.WithShards(8), optchain.WithStreamCapacity(d.Len()))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	ref := newEngine()
	want, err := ref.PlaceStream(optchain.DatasetStream(d))
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 7, 333, 5000} {
		eng := newEngine()
		var got []int
		for lo := 0; lo < len(txs); lo += bs {
			shards, err := eng.PlaceBatch(txs[lo:min(lo+bs, len(txs))], nil)
			if err != nil {
				t.Fatalf("batch size %d: %v", bs, err)
			}
			got = append(got, shards...)
		}
		for i, s := range got {
			if w := ref.Assignment().ShardOf(optchain.Node(i)); s != w {
				t.Fatalf("batch size %d: transaction %d placed in %d, by PlaceStream in %d", bs, i, s, w)
			}
		}
		if st := eng.Stats(); len(got) != len(txs) || !reflect.DeepEqual(st, want) {
			t.Fatalf("batch size %d: %d placed, stats %+v; PlaceStream %+v", bs, len(got), st, want)
		}
	}
}
