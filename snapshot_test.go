package optchain_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"optchain"
)

// snapshotStream materializes a deterministic mixed workload as StreamTx
// values so tests can replay identical halves through multiple engines.
func snapshotStream(t *testing.T, n int, shards int) []optchain.StreamTx {
	t.Helper()
	d, err := optchain.MaterializeWorkload(
		"mix:bitcoin=0.6,hotspot=0.25,adversarial=0.15",
		optchain.WorkloadParams{N: n, Seed: 7, Shards: shards})
	if err != nil {
		t.Fatalf("materialize workload: %v", err)
	}
	var txs []optchain.StreamTx
	for tx := range optchain.DatasetStream(d) {
		ins := make([]int, len(tx.Inputs))
		copy(ins, tx.Inputs)
		txs = append(txs, optchain.StreamTx{Inputs: ins, Outputs: tx.Outputs})
	}
	if len(txs) != n {
		t.Fatalf("materialized %d txs, want %d", len(txs), n)
	}
	return txs
}

func snapshotEngine(t *testing.T, strategy string, n int, extra ...optchain.Option) *optchain.Engine {
	t.Helper()
	opts := append([]optchain.Option{
		optchain.WithShards(8),
		optchain.WithStrategy(strategy),
		optchain.WithStreamCapacity(n),
		optchain.WithSeed(1),
	}, extra...)
	e, err := optchain.New(opts...)
	if err != nil {
		t.Fatalf("New(%s): %v", strategy, err)
	}
	return e
}

// TestSnapshotRoundTripDecisionFidelity is the restore-fidelity proof: a
// workload replays uninterrupted through engine A; engine B places the
// first half and snapshots; a fresh engine C restores the snapshot and
// places the second half. C's decisions must be bit-identical to A's on
// the same suffix, and the final counters must agree exactly.
func TestSnapshotRoundTripDecisionFidelity(t *testing.T) {
	const n = 3000
	txs := snapshotStream(t, n, 8)
	half := n / 2
	for _, strategy := range []string{"OptChain", "T2S", "Greedy", "OmniLedger"} {
		t.Run(strategy, func(t *testing.T) {
			a := snapshotEngine(t, strategy, n)
			first, err := a.PlaceBatch(txs[:half], nil)
			if err != nil {
				t.Fatalf("A first half: %v", err)
			}
			want, err := a.PlaceBatch(txs[half:], nil)
			if err != nil {
				t.Fatalf("A second half: %v", err)
			}

			b := snapshotEngine(t, strategy, n)
			bFirst, err := b.PlaceBatch(txs[:half], nil)
			if err != nil {
				t.Fatalf("B first half: %v", err)
			}
			for i := range first {
				if first[i] != bFirst[i] {
					t.Fatalf("A and B disagree at %d before any snapshot: %d vs %d", i, first[i], bFirst[i])
				}
			}
			var snap bytes.Buffer
			if err := b.WriteSnapshot(&snap); err != nil {
				t.Fatalf("WriteSnapshot: %v", err)
			}

			c := snapshotEngine(t, strategy, n)
			if err := c.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("ReadSnapshot: %v", err)
			}
			if got, want := c.Stats(), b.Stats(); got.Placed != want.Placed ||
				got.Cross != want.Cross || got.CrossFraction != want.CrossFraction {
				t.Fatalf("restored stats %+v, want %+v", got, want)
			}
			got, err := c.PlaceBatch(txs[half:], nil)
			if err != nil {
				t.Fatalf("C second half: %v", err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("restored engine diverges at suffix position %d: shard %d, uninterrupted run chose %d",
						half+i, got[i], want[i])
				}
			}
			ga, gc := a.Stats(), c.Stats()
			if ga.Placed != gc.Placed || ga.Cross != gc.Cross {
				t.Fatalf("final stats diverge: uninterrupted %+v, restored %+v", ga, gc)
			}
		})
	}
}

// TestSnapshotRoundTripParallel proves fidelity holds for engines built
// with WithParallelism too: the snapshot a 2-worker engine writes restores
// into another and continues with the uninterrupted run's decisions.
func TestSnapshotRoundTripParallel(t *testing.T) {
	const n = 2000
	txs := snapshotStream(t, n, 8)
	half := n / 2
	par := optchain.WithParallelism(2)

	a := snapshotEngine(t, "OptChain", n, par)
	if _, err := a.PlaceBatch(txs[:half], nil); err != nil {
		t.Fatalf("A first half: %v", err)
	}
	want, err := a.PlaceBatch(txs[half:], nil)
	if err != nil {
		t.Fatalf("A second half: %v", err)
	}

	b := snapshotEngine(t, "OptChain", n, par)
	if _, err := b.PlaceBatch(txs[:half], nil); err != nil {
		t.Fatalf("B first half: %v", err)
	}
	var snap bytes.Buffer
	if err := b.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	c := snapshotEngine(t, "OptChain", n, par)
	if err := c.ReadSnapshot(&snap); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	got, err := c.PlaceBatch(txs[half:], nil)
	if err != nil {
		t.Fatalf("C second half: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restore diverges at %d: %d vs %d", half+i, got[i], want[i])
		}
	}
	if as, cs := a.Stats(), c.Stats(); as.Placed != cs.Placed || as.Cross != cs.Cross {
		t.Fatalf("final stats diverge: uninterrupted %+v, restored %+v", as, cs)
	}
}

// TestSnapshotEmptyEngine: snapshotting before any placement restores to a
// state indistinguishable from fresh.
func TestSnapshotEmptyEngine(t *testing.T) {
	const n = 500
	txs := snapshotStream(t, n, 8)
	a := snapshotEngine(t, "OptChain", n)
	var snap bytes.Buffer
	if err := a.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	b := snapshotEngine(t, "OptChain", n)
	if err := b.ReadSnapshot(&snap); err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	want, err := a.PlaceBatch(txs, nil)
	if err != nil {
		t.Fatalf("A: %v", err)
	}
	got, err := b.PlaceBatch(txs, nil)
	if err != nil {
		t.Fatalf("B: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("empty-snapshot restore diverges at %d", i)
		}
	}
}

// TestSnapshotFingerprintMismatch: every decision-relevant configuration
// disagreement is rejected with ErrBadSnapshot before any state is adopted.
func TestSnapshotFingerprintMismatch(t *testing.T) {
	const n = 200
	txs := snapshotStream(t, n, 8)
	src := snapshotEngine(t, "OptChain", n)
	if _, err := src.PlaceBatch(txs[:100], nil); err != nil {
		t.Fatalf("place: %v", err)
	}
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	cases := map[string][]optchain.Option{
		"strategy": {optchain.WithShards(8), optchain.WithStrategy("T2S"), optchain.WithStreamCapacity(n), optchain.WithSeed(1)},
		"shards":   {optchain.WithShards(4), optchain.WithStrategy("OptChain"), optchain.WithStreamCapacity(n), optchain.WithSeed(1)},
		"alpha":    {optchain.WithShards(8), optchain.WithStrategy("OptChain"), optchain.WithStreamCapacity(n), optchain.WithAlpha(0.9)},
		"weight":   {optchain.WithShards(8), optchain.WithStrategy("OptChain"), optchain.WithStreamCapacity(n), optchain.WithL2SWeight(0.5)},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			e, err := optchain.New(opts...)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			if err := e.ReadSnapshot(bytes.NewReader(snap.Bytes())); !errors.Is(err, optchain.ErrBadSnapshot) {
				t.Fatalf("mismatched %s restored with err=%v, want ErrBadSnapshot", name, err)
			}
		})
	}
}

// TestSnapshotRejectsNonFreshEngine: restore over existing placements fails.
func TestSnapshotRejectsNonFreshEngine(t *testing.T) {
	const n = 200
	txs := snapshotStream(t, n, 8)
	src := snapshotEngine(t, "OptChain", n)
	if _, err := src.PlaceBatch(txs[:50], nil); err != nil {
		t.Fatalf("place: %v", err)
	}
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	busy := snapshotEngine(t, "OptChain", n)
	if _, err := busy.PlaceBatch(txs[:10], nil); err != nil {
		t.Fatalf("place: %v", err)
	}
	if err := busy.ReadSnapshot(&snap); !errors.Is(err, optchain.ErrBadSnapshot) {
		t.Fatalf("restore into used engine: err=%v, want ErrBadSnapshot", err)
	}
}

// TestSnapshotUnsupportedStrategy: Metis replays an offline partition and
// has no exportable online state.
func TestSnapshotUnsupportedStrategy(t *testing.T) {
	part := make([]int32, 100)
	e, err := optchain.New(
		optchain.WithShards(8),
		optchain.WithStrategy("Metis"),
		optchain.WithMetisPartition(part),
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.WriteSnapshot(&bytes.Buffer{}); !errors.Is(err, optchain.ErrSnapshotUnsupported) {
		t.Fatalf("Metis snapshot: err=%v, want ErrSnapshotUnsupported", err)
	}
}

// TestSnapshotCorruption: flipped payload bytes and truncation both fail
// with ErrBadSnapshot (checksum), as does garbage.
func TestSnapshotCorruption(t *testing.T) {
	const n = 300
	txs := snapshotStream(t, n, 8)
	src := snapshotEngine(t, "OptChain", n)
	if _, err := src.PlaceBatch(txs[:150], nil); err != nil {
		t.Fatalf("place: %v", err)
	}
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	raw := snap.Bytes()

	flipped := bytes.Clone(raw)
	flipped[len(flipped)/2] ^= 0x40
	cases := map[string][]byte{
		"flipped bit": flipped,
		"truncated":   raw[:len(raw)-10],
		"garbage":     []byte("not a snapshot at all"),
		"empty":       nil,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			e := snapshotEngine(t, "OptChain", n)
			if err := e.ReadSnapshot(bytes.NewReader(data)); !errors.Is(err, optchain.ErrBadSnapshot) {
				t.Fatalf("corrupt (%s): err=%v, want ErrBadSnapshot", name, err)
			}
		})
	}
}

// TestOverSpendingStreamIsPlacedAndCounted: a stream may name a parent more
// often than the parent declared outputs (the Engine API does not check
// spends against a ledger). The parent is retired by the spender that takes
// its last declared output; every later reference is still placed, still
// counts for the cross-shard statistics, gives the child no score mass from
// that parent (it decides as it would without the input), and is counted.
// None of it depends on where a snapshot was taken: an engine restored
// between the retirement and the late references decides, counts and
// snapshots exactly as the uninterrupted one.
func TestOverSpendingStreamIsPlacedAndCounted(t *testing.T) {
	const late = 40
	head := []optchain.StreamTx{
		{Outputs: 1},                      // 0: one output ...
		{Outputs: 2},                      // 1
		{Outputs: 0},                      // 2: unknown count, never retired
		{Inputs: []int{0, 1}, Outputs: 1}, // 3: ... spent here: 0 is retired
		{Inputs: []int{2}, Outputs: 1},    // 4
	}
	var tail, bare []optchain.StreamTx
	for i := 0; i < late; i++ {
		tail = append(tail, optchain.StreamTx{Inputs: []int{0}, Outputs: 1}) // 0 again: over-spent
		bare = append(bare, optchain.StreamTx{Outputs: 1})
	}
	tail = append(tail, optchain.StreamTx{Inputs: []int{0, 2, 2}, Outputs: 1}) // beside a live parent
	bare = append(bare, optchain.StreamTx{Inputs: []int{2}, Outputs: 1})
	n := len(head) + len(tail)

	for _, strategy := range []string{"OptChain", "T2S"} {
		t.Run(strategy, func(t *testing.T) {
			whole, cut, twin := snapshotEngine(t, strategy, n), snapshotEngine(t, strategy, n), snapshotEngine(t, strategy, n)
			for _, e := range []*optchain.Engine{whole, cut, twin} {
				if _, err := e.PlaceBatch(head, nil); err != nil {
					t.Fatal(err)
				}
			}
			if st := whole.Stats(); st.RetiredTxs != 1 || st.RetiredRefs != 0 {
				t.Fatalf("after the head: %d retired, %d late references, want 1 and 0", st.RetiredTxs, st.RetiredRefs)
			}
			crossAfterHead := whole.Stats().Cross
			var snap bytes.Buffer
			if err := cut.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			restored := snapshotEngine(t, strategy, n)
			if err := restored.ReadSnapshot(&snap); err != nil {
				t.Fatal(err)
			}

			want, err := whole.PlaceBatch(tail, nil)
			if err != nil {
				t.Fatalf("over-spending references must be placed: %v", err)
			}
			got, err := restored.PlaceBatch(tail, nil)
			if err != nil {
				t.Fatal(err)
			}
			noInput, err := twin.PlaceBatch(bare, nil)
			if err != nil {
				t.Fatal(err)
			}
			asn := whole.Assignment()
			cross := crossAfterHead
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("late reference %d: the restored engine chose %d, the uninterrupted one %d", i, got[i], want[i])
				}
				if noInput[i] != want[i] {
					t.Fatalf("late reference %d chose %d, the same transaction without its retired parent %d: the parent still carried score mass", i, want[i], noInput[i])
				}
				for _, in := range tail[i].Inputs {
					if asn.ShardOf(optchain.Node(in)) != want[i] {
						cross++ // the retired parent's shard still counts
						break
					}
				}
			}
			if got := whole.Stats().Cross; got != cross || cross == crossAfterHead {
				t.Fatalf("%d cross-shard transactions, want %d (%d before the late references)", got, cross, crossAfterHead)
			}
			a, b := whole.Stats(), restored.Stats()
			if a.RetiredTxs != 1 || a.RetiredRefs != late+1 {
				t.Fatalf("%d retired, %d late references, want 1 and %d", a.RetiredTxs, a.RetiredRefs, late+1)
			}
			if b.RetiredTxs != a.RetiredTxs || b.RetiredRefs != a.RetiredRefs || b.Cross != a.Cross || b.SlabEntries != a.SlabEntries {
				t.Fatalf("restored engine's stats %+v, the uninterrupted one's %+v", b, a)
			}
			var endA, endB bytes.Buffer
			if err := whole.WriteSnapshot(&endA); err != nil {
				t.Fatal(err)
			}
			if err := restored.WriteSnapshot(&endB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(endA.Bytes(), endB.Bytes()) {
				t.Fatal("the two engines' final snapshots differ")
			}
		})
	}
}

// TestSnapshotLargeOutputCount: a transaction declaring 70,000 outputs,
// more than a T2S node record can count, keeps its count across a snapshot
// taken when 40,000 of them are spent. The restored engine writes the bytes
// it read, then spends the other 30,000 and three more alongside the engine
// that wrote them: the same decisions, the transaction retired at its
// 70,000th spender on both, the three over-spends counted on both.
func TestSnapshotLargeOutputCount(t *testing.T) {
	const outs, before, after, over = 70_000, 40_000, 30_000, 3
	txs := []optchain.StreamTx{{Outputs: outs}, {Inputs: []int{0}, Outputs: 1}}
	for u := 2; len(txs) < 1+outs+over; u++ {
		tx := optchain.StreamTx{Inputs: []int{0, u - 1}, Outputs: 1}
		if len(txs) > outs {
			tx.Outputs = 0
		}
		txs = append(txs, tx)
	}
	cut := 1 + before
	for _, strategy := range []string{"OptChain", "T2S"} {
		t.Run(strategy, func(t *testing.T) {
			whole := snapshotEngine(t, strategy, len(txs))
			if _, err := whole.PlaceBatch(txs[:cut], nil); err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := whole.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			restored := snapshotEngine(t, strategy, len(txs))
			if err := restored.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := restored.WriteSnapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), snap.Bytes()) {
				t.Fatal("the restored engine writes a snapshot that differs from the one it read")
			}
			for _, part := range [][]optchain.StreamTx{txs[cut : cut+after], txs[cut+after:]} {
				want, err := whole.PlaceBatch(part, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, err := restored.PlaceBatch(part, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatal("the restored engine decides otherwise than the one that wrote its snapshot")
				}
				a, b := whole.Stats(), restored.Stats()
				if a.RetiredTxs != b.RetiredTxs || a.RetiredRefs != b.RetiredRefs || a.SlabEntries != b.SlabEntries || a.Cross != b.Cross {
					t.Fatalf("stats %+v after the restore, %+v without it", b, a)
				}
			}
			// The wide transaction and its 70,000 one-output spenders have had
			// every output spent, and the over-spends named it after.
			if st := whole.Stats(); st.RetiredTxs != 1+outs || st.RetiredRefs != over {
				t.Fatalf("%d retired, %d late references; want %d and %d", st.RetiredTxs, st.RetiredRefs, 1+outs, over)
			}
			var endA, endB bytes.Buffer
			if err := whole.WriteSnapshot(&endA); err != nil {
				t.Fatal(err)
			}
			if err := restored.WriteSnapshot(&endB); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(endA.Bytes(), endB.Bytes()) {
				t.Fatal("the two engines' final snapshots differ")
			}
		})
	}
}
