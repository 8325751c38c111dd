package optchain_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"optchain"
	"optchain/serve"
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

// fuzzStrategies are the strategies FuzzReadSnapshot restores into: the
// T2S section's (OptChain's) and the assignment-only one (Greedy's and
// OmniLedger's).
var fuzzStrategies = []string{"OptChain", "Greedy", "OmniLedger"}

func fuzzEngine(t testing.TB, strategy string) *optchain.Engine {
	t.Helper()
	e, err := optchain.New(optchain.WithShards(fuzzShards), optchain.WithStrategy(strategy), optchain.WithStreamCapacity(fuzzTxs))
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

// format2Files are the streams of earlier formats committed before their
// successors: in format 2, the bitcoin stream's first fuzzCut transactions
// as snapshotted before transactions were retired, its first 300 as an
// engine with parallel placement wrote them (reserved header counters
// non-zero), and a serve state file wrapping the hotspot stream's first
// 200 lines; in format 4, the bitcoin stream's first fuzzCut transactions
// as fuzzEngine snapshots them, an assignment a byte a decision and an
// out-degree and span length for every transaction; in format 5, the same
// transactions with the assignment's packed words, a held bitmap, an
// output count for every transaction and the held ones' out-degrees and
// span lengths.
var format2Files = []struct {
	name, path string
	version    int
	serve      bool
}{
	{"all_live_bitcoin_250", "testdata/snapshot_pr21_bitcoin_250.bin", 2, false},
	{"parallel_bitcoin_300", "testdata/snapshot_pr24_parallel_bitcoin_300.bin", 2, false},
	{"serve_hotspot_200", "serve/testdata/state_pr21_hotspot_200.bin", 2, true},
	{"format4_bitcoin_250", "testdata/snapshot_pr50_bitcoin_250.bin", 4, false},
	{"format5_bitcoin_250", "testdata/snapshot_format5_bitcoin_250.bin", 5, false},
}

// TestFormat2SnapshotsRefused: each committed stream of an earlier format
// is refused naming its version, ReadSnapshot with ErrBadSnapshot and a
// serve state file with ErrBadState; there is no second reader.
func TestFormat2SnapshotsRefused(t *testing.T) {
	for _, f := range format2Files {
		t.Run(f.name, func(t *testing.T) {
			data, err := os.ReadFile(f.path)
			if err != nil {
				t.Fatal(err)
			}
			want := optchain.ErrBadSnapshot
			if f.serve {
				want = serve.ErrBadState
				_, err = serve.New(serve.Config{Engine: fuzzEngine(t, "OptChain"), StatePath: f.path, SnapshotEvery: -1})
			} else {
				err = fuzzEngine(t, "OptChain").ReadSnapshot(bytes.NewReader(data))
			}
			if v := fmt.Sprintf("version %d, want 6", f.version); !errors.Is(err, want) || !strings.Contains(err.Error(), v) {
				t.Errorf("%s: %v, want %v naming %q", f.path, err, want, v)
			}
		})
	}
}

// bitmapAt returns where the held bitmap's word count sits in a snapshot
// of a fuzzEngine's T2S section: past the header and the packed
// assignment, 4 bits a decision at fuzzShards shards.
func bitmapAt(t testing.TB, snap []byte) int {
	r := bytes.NewReader(snap[len("OPTCHSNP"):])
	next := func() uint64 {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	next()                                // version
	r.Seek(int64(next()), io.SeekCurrent) // strategy name
	for range 7 {                         // shards, alpha, L2S weight, capacity hint, placed, cross total and count
		next()
	}
	n := int(next())
	return len(snap) - r.Len() + 8*((n+15)/16)
}

// FuzzReadSnapshot feeds ReadSnapshot arbitrary bytes, as given and with
// the trailing checksum recomputed so that mutations reach the column
// decoders, restoring into an engine of each of fuzzStrategies. A stream
// is either refused with ErrBadSnapshot or restores an engine that works:
// a genuine snapshot continues exactly as the engine that wrote it, and
// any other accepted stream is the one its state writes,
// byte for byte, and survives its own round trip (write, read, same next
// decisions). Nothing panics, and nothing is
// allocated from a length the stream merely claims: every engine here has
// room for 400 transactions, so a claim that got through would be felt.
func FuzzReadSnapshot(f *testing.F) {
	known := map[string]continuation{}
	seed := func(strategy string, txs []optchain.StreamTx) []byte {
		e := fuzzEngine(f, strategy)
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
		return snap.Bytes()
	}
	bitcoin := seed("OptChain", fuzzStream(f, benchmarkSpecs[0]))
	for _, spec := range benchmarkSpecs[1:] {
		seed("OptChain", fuzzStream(f, spec))
	}
	// A transaction with more outputs than a node record counts, half spent:
	// an output count of three uvarint bytes and an out-degree of two.
	wide := []optchain.StreamTx{{Outputs: 70_000}}
	for u := 1; u < fuzzTxs; u++ {
		wide = append(wide, optchain.StreamTx{Inputs: []int{0, u / 2}, Outputs: 2})
	}
	seed("OptChain", wide)
	// Sections that are only the assignment.
	seed("Greedy", fuzzStream(f, benchmarkSpecs[0]))
	seed("OmniLedger", fuzzStream(f, benchmarkSpecs[2]))
	var empty bytes.Buffer
	if err := fuzzEngine(f, "OptChain").WriteSnapshot(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte("OPTCHSNP"))
	// Streams of earlier formats: refused as they are, and, their version
	// byte mutated, columns of the old widths under the new rules.
	for _, old := range format2Files {
		if old.serve {
			continue
		}
		data, err := os.ReadFile(old.path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The bitcoin seed with one rule broken each: a padding bit of the
	// assignment's last word, a bitmap bit past the last node, a bitmap
	// word too many, and a held bit cleared, which leaves the held columns
	// longer than the bitmap's popcount.
	at := bitmapAt(f, bitcoin)
	end := at + 1 + 4*8 // 250 nodes take four words
	for _, plant := range []func([]byte) []byte{
		func(b []byte) []byte { b[at-1] |= 0x80; return b },
		func(b []byte) []byte { b[end-1] |= 0x80; return b },
		func(b []byte) []byte { b[at]++; return slices.Concat(b[:end], make([]byte, 8), b[end:]) },
		func(b []byte) []byte {
			i := at + 1
			for b[i] == 0 {
				i++
			}
			b[i] &= b[i] - 1
			return b
		},
	} {
		planted := plant(bytes.Clone(bitcoin))
		body := planted[:len(planted)-4]
		f.Add(binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)))
	}

	check := func(t *testing.T, strategy string, data []byte) {
		e := fuzzEngine(t, strategy)
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
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("an accepted stream of %d bytes is written back as %d different ones", len(data), again.Len())
		}
		twin := fuzzEngine(t, strategy)
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
		var resealed []byte
		if len(data) >= 4 {
			resealed = bytes.Clone(data)
			body := resealed[:len(resealed)-4]
			binary.LittleEndian.PutUint32(resealed[len(body):], crc32.ChecksumIEEE(body))
		}
		for _, strategy := range fuzzStrategies {
			check(t, strategy, data)
			if resealed != nil {
				check(t, strategy, resealed)
			}
		}
	})
}
