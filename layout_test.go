package optchain

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"optchain/internal/core"
)

// mixIDsSpec is the benchmark's mix-ids stream (benchmark/run.go).
const mixIDsSpec = "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05"

// t2sIndex reads the T2S index off a filled engine.
func t2sIndex(t *testing.T, e *Engine) *core.T2SIndex {
	t.Helper()
	p, ok := e.placer.(interface{ Scores() *core.T2SIndex })
	if !ok {
		t.Fatalf("strategy %q has no T2S index", e.strategy)
	}
	return p.Scores()
}

// TestPlacementFingerprint pins what a change to how placer state is laid
// out or forgotten must not move: every decision, the cross-shard count and
// the number of slab entries ever committed, on the benchmark's three
// stream shapes, for both T2S-backed strategies. Those values were recorded
// at the commit before the index went to end offsets, 2-byte shard ids and
// a chunked slab; placement is deterministic, so any difference is a
// behaviour change, not noise. held= is what the index still holds of those
// entries now that a transaction is retired when its last declared output
// is spent: forgetting is exact on these streams, so it moved nothing else.
// snap= is the FNV-64 of the engine's snapshot, re-recorded when format 3
// replaced format 2 (uvarint counts and out-degrees, 1-byte shard ids and
// span lengths at these 16 shards) with every other field unchanged, and
// again when format 4 moved the output counts into the T2S section: only
// the version byte changed, and with it set back to 3 each stream hashes
// to its format-3 value. An engine restored from that snapshot must write
// the same bytes back.
func TestPlacementFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("6 placement passes of 200k transactions")
	}
	const txs, shards = 200_000, 16
	want := map[string]string{
		"bitcoin/OptChain": "0xc60cb6482dd76c03 cross=13688 slab=310576 held=74983 snap=0x13d466b8d7fe451b",
		"bitcoin/T2S":      "0xf8f94be27a496985 cross=30296 slab=584284 held=145530 snap=0x7a0e2cd18444b114",
		"hotspot/OptChain": "0xe5fc7f2249a0f1fa cross=10582 slab=511278 held=109879 snap=0x96e726e795e6b028",
		"hotspot/T2S":      "0xecf876d1070986aa cross=92758 slab=2208402 held=468918 snap=0x2f62dd1d8a4de113",
		"mix-ids/OptChain": "0x664d4d853b87bf6 cross=41962 slab=513200 held=89617 snap=0x3208bffbb7beb9a7",
		"mix-ids/T2S":      "0x4d7436f181105547 cross=64399 slab=786609 held=174458 snap=0x807dbe050804f956",
	}
	for _, w := range []struct{ name, spec string }{
		{"bitcoin", "bitcoin"}, {"hotspot", "hotspot"}, {"mix-ids", mixIDsSpec},
	} {
		for _, strategy := range []string{"OptChain", "T2S"} {
			id := w.name + "/" + strategy
			e, err := New(WithShards(shards), WithStrategy(strategy), WithSeed(3),
				WithWorkload(w.spec, nil), WithStreamCapacity(txs))
			if err != nil {
				t.Fatal(err)
			}
			st, err := e.PlaceWorkload(txs)
			if err != nil {
				t.Fatal(err)
			}
			if st.Placed != txs {
				t.Fatalf("%s: placed %d of %d", id, st.Placed, txs)
			}
			h := fnv.New64a()
			asn := e.Assignment()
			var b [4]byte
			for i := 0; i < txs; i++ {
				binary.LittleEndian.PutUint32(b[:], uint32(asn.ShardOf(Node(i))))
				h.Write(b[:])
			}
			idx := t2sIndex(t, e)
			var snap bytes.Buffer
			if err := e.WriteSnapshot(&snap); err != nil {
				t.Fatal(err)
			}
			sh := fnv.New64a()
			sh.Write(snap.Bytes())
			got := fmt.Sprintf("%#x cross=%d slab=%d held=%d snap=%#x", h.Sum64(), st.Cross, idx.Committed(), idx.SlabLen(), sh.Sum64())
			if got != want[id] {
				t.Errorf("%s: got %s, want %s", id, got, want[id])
			}
			fresh, err := New(WithShards(shards), WithStrategy(strategy), WithSeed(3),
				WithWorkload(w.spec, nil), WithStreamCapacity(txs))
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			var again bytes.Buffer
			if err := fresh.WriteSnapshot(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), snap.Bytes()) {
				t.Errorf("%s: the restored engine writes a %d-byte snapshot that differs from the %d bytes it was read from", id, again.Len(), snap.Len())
			}
		}
	}
}

// TestStateBudgets holds the heap a filled engine retains per placed
// transaction, measured as the benchmark measures state_bytes_per_tx, to
// what its columns cost: 16 bytes of per-transaction columns (shard, and
// the index's 12-byte node record, which holds the output count) plus 10
// bytes per slab entry the index holds a chunk for — the vectors of
// transactions that still have an unspent output, and what slack
// retirement leaves behind (free slots no vector has reused yet, the
// unfilled tail of the last chunk). While the engine kept its own 4-byte
// output-count column beside the index, the same streams cost 21.9 / 23.7
// / 23.3 B/tx here against budgets of 24 / 26 / 27; before retirement, 33 /
// 41 / 42 B/tx (every vector ever committed kept); before the index went to
// offsets, 2-byte shard ids and a chunked slab, 52 / 52 / 76 B/tx at the
// benchmark's million. The budget is held against the columns' own account
// (Stats().StateBytes, exact run to run) and the heap reading must agree
// with that account to half a byte: at 200k transactions whatever else the
// process frees or keeps between the two readings moves the heap figure by
// a fifth of a byte, more than the margin bitcoin has under its budget.
func TestStateBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("three placement passes of 200k transactions")
	}
	const txs, shards = 200_000, 16
	for _, w := range []struct {
		spec   string
		budget float64 // B/tx
	}{{"bitcoin", 20}, {"hotspot", 22}, {mixIDsSpec, 23}} {
		// The generators build one-time tables on first use (the age draw's
		// 512 KiB of logarithms, 2.6 B/tx here): build them before the
		// first reading, or the test reads them as state when run alone.
		warm, err := New(WithShards(shards), WithSeed(1), WithWorkload(w.spec, nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.PlaceWorkload(1000); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := New(WithShards(shards), WithSeed(1), WithWorkload(w.spec, nil), WithStreamCapacity(txs))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.PlaceWorkload(txs); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		st := e.Stats()
		retained := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / txs
		account := float64(st.StateBytes) / txs
		live := 16 + 10*float64(st.SlabEntries)/txs
		t.Logf("%s: %.2f B/tx retained, %.2f B/tx by the columns' own account, %.2f entries/tx held (%.0f%% of transactions retired), columns and live vectors alone %.2f B/tx",
			w.spec, retained, account, float64(st.SlabEntries)/txs, 100*float64(st.RetiredTxs)/txs, live)
		if account > w.budget {
			t.Errorf("%s: the columns hold %.2f B/tx, budget %.0f", w.spec, account, w.budget)
		}
		if retained > account+0.5 || retained < account-0.5 {
			t.Errorf("%s: Stats().StateBytes says %.2f B/tx, the heap %.2f", w.spec, account, retained)
		}
		if account > live+1 {
			t.Errorf("%s: the columns hold %.2f B/tx where the records and the live vectors take %.2f: more than 1 B/tx of free slots and slack", w.spec, account, live)
		}
		if st.RetiredRefs != 0 {
			t.Errorf("%s: %d references to retired transactions on a valid stream", w.spec, st.RetiredRefs)
		}
		runtime.KeepAlive(e)
	}
}
