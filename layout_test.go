package optchain

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"optchain/internal/core"
)

// mixIDsSpec is the benchmark's mix-ids stream (benchmark/run.go).
const mixIDsSpec = "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05"

// slabLen reads the T2S arena's entry count off a filled engine.
func slabLen(t *testing.T, e *Engine) int {
	t.Helper()
	p, ok := e.placer.(interface{ Scores() *core.T2SIndex })
	if !ok {
		t.Fatalf("strategy %q has no T2S index", e.strategy)
	}
	return p.Scores().SlabLen()
}

// TestPlacementFingerprint pins what a change to how placer state is laid
// out must not move: every decision, the cross-shard count and the number
// of slab entries, on the benchmark's three stream shapes, for both
// T2S-backed strategies, serial and through two-worker epochs. The values
// were recorded at the commit before the index went to end offsets, 2-byte
// shard ids and a chunked slab; placement is deterministic, so any
// difference is a behaviour change, not noise.
func TestPlacementFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("12 placement passes of 200k transactions")
	}
	const txs, shards = 200_000, 16
	want := map[string]string{
		"bitcoin/OptChain/0": "0xc60cb6482dd76c03 cross=13688 slab=310576",
		"bitcoin/OptChain/2": "0x52ae264bfd33d8b6 cross=74819 slab=746282",
		"bitcoin/T2S/0":      "0xf8f94be27a496985 cross=30296 slab=584284",
		"bitcoin/T2S/2":      "0x5d5321aff0613660 cross=74753 slab=746514",
		"hotspot/OptChain/0": "0xe5fc7f2249a0f1fa cross=10582 slab=511278",
		"hotspot/OptChain/2": "0x473eded261187c4b cross=45152 slab=1005663",
		"hotspot/T2S/0":      "0xecf876d1070986aa cross=92758 slab=2208402",
		"hotspot/T2S/2":      "0x8e52c2fbbc668d0c cross=103500 slab=1778586",
		"mix-ids/OptChain/0": "0x664d4d853b87bf6 cross=41962 slab=513200",
		"mix-ids/OptChain/2": "0xd1defe19f95828f5 cross=92221 slab=854361",
		"mix-ids/T2S/0":      "0x4d7436f181105547 cross=64399 slab=786609",
		"mix-ids/T2S/2":      "0xa235ae5ed46eafe6 cross=98583 slab=913148",
	}
	for _, w := range []struct{ name, spec string }{
		{"bitcoin", "bitcoin"}, {"hotspot", "hotspot"}, {"mix-ids", mixIDsSpec},
	} {
		for _, strategy := range []string{"OptChain", "T2S"} {
			for _, workers := range []int{0, 2} {
				id := fmt.Sprintf("%s/%s/%d", w.name, strategy, workers)
				opts := []Option{
					WithShards(shards), WithStrategy(strategy), WithSeed(3),
					WithWorkload(w.spec, nil), WithStreamCapacity(txs),
				}
				if workers > 0 {
					opts = append(opts, WithParallelism(workers))
				}
				e, err := New(opts...)
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
				got := fmt.Sprintf("%#x cross=%d slab=%d", h.Sum64(), st.Cross, slabLen(t, e))
				if got != want[id] {
					t.Errorf("%s: got %s, want %s", id, got, want[id])
				}
			}
		}
	}
}

// TestStateBudgets holds the heap a filled engine retains per placed
// transaction, measured as the benchmark measures state_bytes_per_tx, to
// what its columns cost: 16 bytes of per-transaction columns (output count,
// shard, end offset, out-degree) plus 10 bytes per entry of its p' vector.
// Before the index went to end offsets, 2-byte shard ids and a chunked slab
// the fixed part was 28 bytes and an entry 12 bytes of a slab that doubled,
// 52 / 52 / 76 B/tx on the benchmark's three streams. (The hotspot stream's
// vectors are wider early on, 2.6 entries a transaction over the first 200k
// against 1.8 over the benchmark's million, hence its larger budget here.)
func TestStateBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("three placement passes of 200k transactions")
	}
	const txs, shards = 200_000, 16
	for _, w := range []struct {
		spec   string
		budget float64 // B/tx
	}{{"bitcoin", 36}, {"hotspot", 44}, {mixIDsSpec, 48}} {
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
		columns := 16 + 10*float64(st.SlabEntries)/txs
		t.Logf("%s: %.2f B/tx retained, %.2f B/tx by the columns' own account, %.2f entries/tx, columns alone %.2f B/tx",
			w.spec, retained, float64(st.StateBytes)/txs, float64(st.SlabEntries)/txs, columns)
		if retained > w.budget {
			t.Errorf("%s: %.2f B/tx retained, budget %.0f", w.spec, retained, w.budget)
		}
		if retained > columns+1 {
			t.Errorf("%s: %.2f B/tx retained where the columns hold %.2f: more than 1 B/tx of slack", w.spec, retained, columns)
		}
		if got := float64(st.StateBytes) / txs; got > retained+0.5 || got < retained-0.5 {
			t.Errorf("%s: Stats().StateBytes says %.2f B/tx, the heap %.2f", w.spec, got, retained)
		}
		runtime.KeepAlive(e)
	}
}
