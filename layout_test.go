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
// the same bytes back, and hold no more state bytes than the engine it was
// read from.
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
			// The restore packs the slab and the record table: it never holds
			// more than the engine it was read from.
			if got, want := fresh.Stats().StateBytes, e.Stats().StateBytes; got > want {
				t.Errorf("%s: the restored engine holds %d state bytes, the uninterrupted one %d", id, got, want)
			}
		}
	}
}

// TestStateBudgets holds the heap a filled engine retains per placed
// transaction, measured as the benchmark measures state_bytes_per_tx, to
// what its columns cost: half a byte of shard (a 4-bit decision at these
// 16 shards) and the T2S index's 4-byte word per transaction, a 12-byte
// node record per transaction that is not spent out (on these valid
// streams every retired transaction is spent out exactly, so placed −
// retired of them), and 10 bytes per slab entry the index holds a chunk
// for — the vectors of transactions that still have an unspent output,
// and what slack retirement leaves behind (free slots no vector has reused
// yet, the unfilled tails of the last slab chunk and the last chunk of
// records). While the assignment kept a 2-byte shard column, the same
// streams cost 12.8 / 14.7 / 14.3 B/tx here against budgets of 13.5 / 15.5
// / 15; while every transaction kept a 12-byte record, 17.9 / 19.7 / 19.3
// against 20 / 22 / 23; while the engine kept its own 4-byte output-count
// column beside the index, 21.9 / 23.7 / 23.3; before retirement, 33 /
// 41 / 42 B/tx (every vector ever committed kept); before the index went
// to offsets, 2-byte shard ids and a chunked slab, 52 / 52 / 76 B/tx at
// the benchmark's million. The budget is held against the columns' own account
// (Stats().StateBytes, exact run to run) and the heap reading must agree
// with that account to half a byte: at 200k transactions whatever else the
// process frees or keeps between the two readings moves the heap figure by
// a fifth of a byte.
//
// The last case is the bitcoin stream with every output count withheld
// (Outputs 0): nothing is retired, every transaction keeps its word and its
// record, and the columns hold the 4 B/tx more than one record each that
// T2SIndex documents, plus at most the two chunk tails.
//
// The budgets and the baselines are in bytes a transaction at 16 shards,
// where the assignment takes shardBytes of each.
func TestStateBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("four placement passes of 200k transactions")
	}
	const txs, shards, shardBytes = 200_000, 16, 4.0 / 8
	for _, w := range []struct {
		spec      string
		budget    float64 // B/tx
		countFree bool
	}{{"bitcoin", 12, false}, {"hotspot", 14, false}, {mixIDsSpec, 13.5, false}, {"bitcoin", 0, true}} {
		name := w.spec
		// The generators build one-time tables on first use (the age draw's
		// 512 KiB of logarithms, 2.6 B/tx here): build them before the
		// first reading, or the test reads them as state when run alone.
		var stream []StreamTx
		if w.countFree {
			name += " without output counts"
			d, err := MaterializeWorkload(w.spec, WorkloadParams{N: txs, Seed: 1, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			for tx := range DatasetStream(d) {
				tx.Outputs = 0
				stream = append(stream, tx)
			}
		} else {
			warm, err := New(WithShards(shards), WithSeed(1), WithWorkload(w.spec, nil))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := warm.PlaceWorkload(1000); err != nil {
				t.Fatal(err)
			}
		}
		dst := make([]int, 0, DefaultBatchSize)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := New(WithShards(shards), WithSeed(1), WithWorkload(w.spec, nil), WithStreamCapacity(txs))
		if err != nil {
			t.Fatal(err)
		}
		if w.countFree {
			for lo := 0; lo < txs; lo += DefaultBatchSize {
				if dst, err = e.PlaceBatch(stream[lo:min(lo+DefaultBatchSize, txs)], dst); err != nil {
					t.Fatal(err)
				}
			}
		} else if _, err := e.PlaceWorkload(txs); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		st := e.Stats()
		retained := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / txs
		account := float64(st.StateBytes) / txs
		entries := float64(st.SlabEntries) / txs
		live := 4 + shardBytes + 12*float64(st.Placed-int(st.RetiredTxs))/txs + 10*entries
		t.Logf("%s: %.2f B/tx retained, %.2f B/tx by the columns' own account, %.2f entries/tx held (%.0f%% of transactions retired), words, records and live vectors alone %.2f B/tx",
			name, retained, account, entries, 100*float64(st.RetiredTxs)/txs, live)
		if retained > account+0.5 || retained < account-0.5 {
			t.Errorf("%s: Stats().StateBytes says %.2f B/tx, the heap %.2f", name, account, retained)
		}
		if account > live+1 {
			t.Errorf("%s: the columns hold %.2f B/tx where the words, records and live vectors take %.2f: more than 1 B/tx of free slots and slack", name, account, live)
		}
		if st.RetiredRefs != 0 {
			t.Errorf("%s: %d references to retired transactions on a valid stream", name, st.RetiredRefs)
		}
		if w.countFree {
			// One 12-byte record a transaction and the shard column, as
			// before words: the word is the extra.
			extra := account - (shardBytes + 12 + 10*entries)
			if st.RetiredTxs != 0 || extra < 4 || extra > 4.5 {
				t.Errorf("%s: %d retired, and the columns hold %.2f B/tx more than a record a transaction: want none, and 4 to 4.5", name, st.RetiredTxs, extra)
			}
		} else if account > w.budget {
			t.Errorf("%s: the columns hold %.2f B/tx, budget %.1f", name, account, w.budget)
		}
		runtime.KeepAlive(e)
		runtime.KeepAlive(stream)
	}
}
