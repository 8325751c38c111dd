package optchain_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"os"
	"testing"

	"optchain"
)

// The three stream shapes the benchmark places (benchmark/run.go).
var benchmarkSpecs = []string{
	"bitcoin",
	"hotspot",
	"mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05",
}

const (
	fuzzShards = 16
	fuzzTxs    = 400 // stream length, and every fuzz engine's capacity
	fuzzCut    = 250 // transactions placed before the snapshot
)

func fuzzEngine(t testing.TB) *optchain.Engine {
	t.Helper()
	e, err := optchain.New(optchain.WithShards(fuzzShards), optchain.WithStreamCapacity(fuzzTxs))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fuzzStream materializes one of the benchmark's stream shapes.
func fuzzStream(t testing.TB, spec string) []optchain.StreamTx {
	t.Helper()
	d, err := optchain.MaterializeWorkload(spec, optchain.WorkloadParams{N: fuzzTxs, Seed: 1, Shards: fuzzShards})
	if err != nil {
		t.Fatal(err)
	}
	var txs []optchain.StreamTx
	for tx := range optchain.DatasetStream(d) {
		txs = append(txs, tx)
	}
	return txs
}

// continuation is what an uninterrupted engine decided after the point a
// seed snapshot was taken at.
type continuation struct {
	rest []optchain.StreamTx
	want []int
}

// allLiveSnapshot is the bitcoin stream's first fuzzCut transactions as the
// commit before retirement snapshotted them (format 2, 250 slab entries,
// the vectors of the 160 fully spent transactions included).
const allLiveSnapshot = "testdata/snapshot_pr21_bitcoin_250.bin"

// TestAllLiveSnapshotLoadsAndSheds: a snapshot written before transactions
// were retired restores into exactly the state the engine now holds at
// that point — the dead vectors are dropped on load — and the next
// snapshot is byte for byte the one an engine that never restarted writes.
func TestAllLiveSnapshotLoadsAndSheds(t *testing.T) {
	old, err := os.ReadFile(allLiveSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	txs := fuzzStream(t, "bitcoin")
	direct, restored := fuzzEngine(t), fuzzEngine(t)
	if _, err := direct.PlaceBatch(txs[:fuzzCut], nil); err != nil {
		t.Fatal(err)
	}
	if err := restored.ReadSnapshot(bytes.NewReader(old)); err != nil {
		t.Fatal(err)
	}
	got, want := restored.Stats(), direct.Stats()
	if want.RetiredTxs == 0 || want.SlabEntries >= fuzzCut {
		t.Fatalf("nothing to shed: %d retired, %d entries held", want.RetiredTxs, want.SlabEntries)
	}
	if got.SlabEntries != want.SlabEntries || got.RetiredTxs != want.RetiredTxs || got.RetiredRefs != 0 {
		t.Fatalf("restored %d entries, %d retired, %d late references; the engine itself holds %d, %d, 0",
			got.SlabEntries, got.RetiredTxs, got.RetiredRefs, want.SlabEntries, want.RetiredTxs)
	}
	var a, b bytes.Buffer
	if err := restored.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || a.Len() >= len(old) {
		t.Fatalf("snapshot after the restore: %d bytes, the uninterrupted engine's %d, the old file %d", a.Len(), b.Len(), len(old))
	}
}

// parallelSnapshot is the bitcoin stream's first 300 transactions as an
// engine placing them through two-worker epochs in batches of 64 wrote
// them, before parallel placement was removed: format 2, with the three
// header counters that engine kept non-zero. Restored into a serial engine
// at that commit, it placed the next 1,000 transactions of the same stream
// into parallelSnapshotNext, with parallelSnapshotCross cross-shard
// transactions in all.
const (
	parallelSnapshot      = "testdata/snapshot_pr24_parallel_bitcoin_300.bin"
	parallelSnapshotNext  = 0x7841e87ff4bc380b // FNV-64a of the 1,000 shards, 4 bytes each, little-endian
	parallelSnapshotCross = 311
)

// TestParallelSnapshotLoads: a snapshot whose reserved header counters are
// not zero loads, and the engine goes on deciding as the engine that
// restored it when those counters still meant something.
func TestParallelSnapshotLoads(t *testing.T) {
	old, err := os.ReadFile(parallelSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	d, err := optchain.MaterializeWorkload("bitcoin", optchain.WorkloadParams{N: 1300, Seed: 1, Shards: fuzzShards})
	if err != nil {
		t.Fatal(err)
	}
	var txs []optchain.StreamTx
	for tx := range optchain.DatasetStream(d) {
		txs = append(txs, tx)
	}
	e := fuzzEngine(t)
	if err := e.ReadSnapshot(bytes.NewReader(old)); err != nil {
		t.Fatal(err)
	}
	if placed := e.Stats().Placed; placed != 300 {
		t.Fatalf("restored %d placements, want 300", placed)
	}
	got, err := e.PlaceBatch(txs[300:], nil)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [4]byte
	for _, s := range got {
		binary.LittleEndian.PutUint32(b[:], uint32(s))
		h.Write(b[:])
	}
	if sum, cross := h.Sum64(), e.Stats().Cross; sum != parallelSnapshotNext || cross != parallelSnapshotCross {
		t.Fatalf("the next %d decisions hash to %#x with %d cross-shard in all, want %#x and %d",
			len(got), sum, cross, uint64(parallelSnapshotNext), parallelSnapshotCross)
	}
}

// FuzzReadSnapshot feeds ReadSnapshot arbitrary bytes, as given and with
// the trailing checksum recomputed so that mutations reach the column
// decoders. A stream is either refused with ErrBadSnapshot or restores an
// engine that works: a genuine snapshot continues exactly as the engine
// that wrote it, and any other accepted state survives its own round trip
// (write, read, same next decisions). Nothing panics, and nothing is
// allocated from a length the stream merely claims: every engine here has
// room for 400 transactions, so a claim that got through would be felt.
func FuzzReadSnapshot(f *testing.F) {
	known := map[string]continuation{}
	for _, spec := range benchmarkSpecs {
		txs := fuzzStream(f, spec)
		e := fuzzEngine(f)
		if _, err := e.PlaceBatch(txs[:fuzzCut], nil); err != nil {
			f.Fatal(err)
		}
		var snap bytes.Buffer
		if err := e.WriteSnapshot(&snap); err != nil {
			f.Fatal(err)
		}
		want, err := e.PlaceBatch(txs[fuzzCut:], nil)
		if err != nil {
			f.Fatal(err)
		}
		known[snap.String()] = continuation{txs[fuzzCut:], want}
		f.Add(snap.Bytes())
		if spec == "bitcoin" {
			// The same prefix as snapshotted before transactions were ever
			// retired: every vector is still in it, and it continues the same.
			old, err := os.ReadFile(allLiveSnapshot)
			if err != nil {
				f.Fatal(err)
			}
			known[string(old)] = continuation{txs[fuzzCut:], want}
			f.Add(old)
		}
	}
	// A transaction with more outputs than a node record counts, half spent.
	wide := []optchain.StreamTx{{Outputs: 70_000}}
	for u := 1; u < fuzzTxs; u++ {
		wide = append(wide, optchain.StreamTx{Inputs: []int{0, u / 2}, Outputs: 2})
	}
	e := fuzzEngine(f)
	if _, err := e.PlaceBatch(wide[:fuzzCut], nil); err != nil {
		f.Fatal(err)
	}
	var snap bytes.Buffer
	if err := e.WriteSnapshot(&snap); err != nil {
		f.Fatal(err)
	}
	want, err := e.PlaceBatch(wide[fuzzCut:], nil)
	if err != nil {
		f.Fatal(err)
	}
	known[snap.String()] = continuation{wide[fuzzCut:], want}
	f.Add(snap.Bytes())
	var empty bytes.Buffer
	if err := fuzzEngine(f).WriteSnapshot(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("OPTCHSNP"))
	parallel, err := os.ReadFile(parallelSnapshot)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parallel)

	check := func(t *testing.T, data []byte) {
		e := fuzzEngine(t)
		if err := e.ReadSnapshot(bytes.NewReader(data)); err != nil {
			if !errors.Is(err, optchain.ErrBadSnapshot) {
				t.Fatalf("ReadSnapshot failed with something other than ErrBadSnapshot: %v", err)
			}
			return
		}
		if c, ok := known[string(data)]; ok {
			got, err := e.PlaceBatch(c.rest, nil)
			if err != nil {
				t.Fatalf("restored engine: %v", err)
			}
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Fatalf("restored engine chose shard %d for transaction %d, the uninterrupted one %d", got[i], fuzzCut+i, c.want[i])
				}
			}
			return
		}
		var again bytes.Buffer
		if err := e.WriteSnapshot(&again); err != nil {
			t.Fatalf("an accepted state cannot be written back: %v", err)
		}
		twin := fuzzEngine(t)
		if err := twin.ReadSnapshot(&again); err != nil {
			t.Fatalf("an accepted state does not survive its own round trip: %v", err)
		}
		for i, placed := 0, e.Stats().Placed; i < 8; i++ {
			tx := optchain.StreamTx{Outputs: 2}
			if u := placed + i; u > 0 {
				tx.Inputs = []int{u - 1, u / 2}
			}
			a, errA := e.Place(tx)
			b, errB := twin.Place(tx)
			if errA != nil || errB != nil || a != b {
				t.Fatalf("after an accepted state, placement %d: %d (%v) against %d (%v) from its round trip", i, a, errA, b, errB)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) >= 4 {
			resealed := bytes.Clone(data)
			body := resealed[:len(resealed)-4]
			binary.LittleEndian.PutUint32(resealed[len(body):], crc32.ChecksumIEEE(body))
			check(t, resealed)
		}
	})
}
