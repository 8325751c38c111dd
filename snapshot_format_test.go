package optchain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
)

// formatEngine builds the engine the format tests snapshot and restore.
func formatEngine(t testing.TB, capacity int) *Engine {
	t.Helper()
	e, err := New(WithShards(8), WithStreamCapacity(capacity))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// chainStream is n transactions, each spending its two predecessors.
func chainStream(n int) []StreamTx {
	txs := make([]StreamTx, n)
	for i := range txs {
		for j := max(0, i-2); j < i; j++ {
			txs[i].Inputs = append(txs[i].Inputs, j)
		}
		txs[i].Outputs = 2
	}
	return txs
}

// TestSnapshotSizeIsExact: SnapshotSize predicts WriteSnapshot's stream to
// the byte, before the first placement and after, and a reader that cannot
// say how much it holds restores the same state as one that can.
func TestSnapshotSizeIsExact(t *testing.T) {
	const n = 500
	e := formatEngine(t, n)
	for _, placed := range []int{0, n} {
		if _, err := e.PlaceBatch(chainStream(n)[e.Stats().Placed:placed], nil); err != nil {
			t.Fatal(err)
		}
		size, err := e.SnapshotSize()
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := e.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		if int64(snap.Len()) != size {
			t.Fatalf("%d placed: SnapshotSize %d, WriteSnapshot wrote %d", placed, size, snap.Len())
		}
		for name, r := range map[string]io.Reader{
			"sized":   bytes.NewReader(snap.Bytes()),
			"unsized": io.MultiReader(bytes.NewReader(snap.Bytes())),
		} {
			fresh := formatEngine(t, n)
			if err := fresh.ReadSnapshot(r); err != nil {
				t.Fatalf("%d placed, %s reader: %v", placed, name, err)
			}
			if got, want := fresh.Stats(), e.Stats(); got.Placed != want.Placed || got.Cross != want.Cross ||
				got.SlabEntries != want.SlabEntries || got.RetiredTxs != want.RetiredTxs || got.RetiredRefs != want.RetiredRefs {
				t.Fatalf("%d placed, %s reader: restored %+v, want %+v", placed, name, got, want)
			}
		}
	}
	// Every transaction of the chain but the last two has had both of its
	// outputs spent: the size that was exact is the size of what is held.
	st := e.Stats()
	if st.RetiredTxs != n-2 || st.RetiredRefs != 0 || st.SlabEntries < 2 || st.SlabEntries > 2*8 {
		t.Fatalf("Stats of a filled engine: %d retired, %d late references, %d slab entries held", st.RetiredTxs, st.RetiredRefs, st.SlabEntries)
	}
	if st.StateBytes < 16*n+10*st.SlabEntries {
		t.Fatalf("Stats of a filled engine: %d state bytes for %d transactions and %d entries", st.StateBytes, n, st.SlabEntries)
	}
}

// TestSnapshotWriterHonoursReaderLimit: a state whose stream ReadSnapshot
// would refuse is refused by WriteSnapshot and SnapshotSize too, before a
// byte is written, so nobody saves a snapshot that can never be loaded.
func TestSnapshotWriterHonoursReaderLimit(t *testing.T) {
	defer func(old int64) { snapMaxBytes = old }(snapMaxBytes)
	const n = 200
	e := formatEngine(t, n)
	if _, err := e.PlaceBatch(chainStream(n), nil); err != nil {
		t.Fatal(err)
	}
	size, err := e.SnapshotSize()
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	snapMaxBytes = size
	if err := e.WriteSnapshot(&snap); err != nil {
		t.Fatalf("a snapshot of exactly the limit: %v", err)
	}
	if err := formatEngine(t, n).ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("reading a snapshot of exactly the limit: %v", err)
	}

	snapMaxBytes = size - 1
	var none bytes.Buffer
	if err := e.WriteSnapshot(&none); !errors.Is(err, ErrBadSnapshot) || none.Len() != 0 {
		t.Fatalf("oversized WriteSnapshot: err=%v after writing %d bytes, want ErrBadSnapshot and nothing", err, none.Len())
	}
	if _, err := e.SnapshotSize(); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("oversized SnapshotSize: err=%v, want ErrBadSnapshot", err)
	}
	for name, r := range map[string]io.Reader{
		"sized":   bytes.NewReader(snap.Bytes()),
		"unsized": io.MultiReader(bytes.NewReader(snap.Bytes())),
	} {
		if err := formatEngine(t, n).ReadSnapshot(r); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("oversized ReadSnapshot (%s reader): %v", name, err)
		}
	}
}

// seal appends the CRC-32 a snapshot stream ends with.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
}

// TestSnapshotVersion1Rejected: a well-formed stream of the previous format
// (4-byte shard ids and span lengths) fails with ErrBadSnapshot naming its
// version; there is no second reader.
func TestSnapshotVersion1Rejected(t *testing.T) {
	// An empty OptChain engine over 8 shards, exactly as version 1 wrote it.
	v1 := []byte(snapMagic)
	v1 = binary.AppendUvarint(v1, 1)
	v1 = binary.AppendUvarint(v1, uint64(len("optchain")))
	v1 = append(v1, "optchain"...)
	v1 = binary.AppendUvarint(v1, 8)
	v1 = binary.AppendUvarint(v1, math.Float64bits(0))
	v1 = binary.AppendUvarint(v1, math.Float64bits(0))
	v1 = append(v1, 0)               // reserved
	v1 = binary.AppendUvarint(v1, 0) // capacity hint
	v1 = binary.AppendUvarint(v1, 0) // placed
	v1 = binary.AppendUvarint(v1, 0) // output counts: empty column
	v1 = append(v1, 0, 0, 0, 0, 0)   // cross and epoch counters
	v1 = append(v1, 0, 0, 0, 0, 0)   // assignment, slab shards, slab values, span lengths, out-degrees
	err := formatEngine(t, 0).ReadSnapshot(bytes.NewReader(seal(v1)))
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("version 1 stream: %v", err)
	}
}

// TestSnapshotReservedByte: the writer writes the header's reserved byte
// as 0; a stream carrying 1 (written by an engine that computed the L2S
// lock round by quadrature) restores and decides as one carrying 0, and any
// larger value is refused.
func TestSnapshotReservedByte(t *testing.T) {
	const n = 300
	stream := chainStream(n + 100)
	src := formatEngine(t, n)
	if _, err := src.PlaceBatch(stream[:n], nil); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	at := len(snapMagic)
	for _, v := range []uint64{snapVersion, uint64(len("optchain"))} {
		at += len(binary.AppendUvarint(nil, v))
	}
	at += len("optchain")
	for _, v := range []uint64{8, math.Float64bits(src.alpha), math.Float64bits(src.l2sWeight)} {
		at += len(binary.AppendUvarint(nil, v))
	}
	body := snap.Bytes()[:snap.Len()-4]
	if body[at] != 0 {
		t.Fatalf("the writer wrote reserved byte %d, want 0", body[at])
	}
	var want []int
	for _, b := range []byte{0, 1, 2, 0xff} {
		body[at] = b
		e := formatEngine(t, n)
		err := e.ReadSnapshot(bytes.NewReader(seal(bytes.Clone(body))))
		if b > 1 {
			if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "reserved header byte") {
				t.Fatalf("reserved byte %d: %v", b, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("reserved byte %d: %v", b, err)
		}
		got, err := e.PlaceBatch(stream[n:], nil)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !slices.Equal(got, want) {
			t.Fatalf("reserved byte %d: next decisions %v, want %v", b, got, want)
		}
	}
}

// TestSnapshotCapacityHintBounded: the capacity hint sizes the restored
// engine's columns, so a stream may not ask for more than the restoring
// engine was configured for or than it demonstrably holds.
func TestSnapshotCapacityHintBounded(t *testing.T) {
	const n = 64
	src := formatEngine(t, 1<<20)
	if _, err := src.PlaceBatch(chainStream(n), nil); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := formatEngine(t, 1<<20).ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("same capacity: %v", err)
	}
	err := formatEngine(t, 0).ReadSnapshot(bytes.NewReader(snap.Bytes()))
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "capacity hint") {
		t.Fatalf("hint of 2^20 into an engine without one, 64 placed: %v", err)
	}
}

// TestReadSnapshotInPlace: a snapshot in a *bytes.Reader or *bytes.Buffer is
// restored where its bytes lie, the reader left drained as a copying read
// leaves it, and nothing of the bytes is kept: overwriting them afterwards
// changes nothing the engine writes or decides. Any other reader is copied
// from, and bytes a WriteTo would hand over in pieces are refused unread.
func TestReadSnapshotInPlace(t *testing.T) {
	const n, cut = 500, 300
	txs := chainStream(n)
	src := formatEngine(t, n)
	if _, err := src.PlaceBatch(txs[:cut], nil); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	want, err := src.PlaceBatch(txs[cut:], nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"bytes.Reader", "bytes.Buffer", "io.Reader"} {
		data := bytes.Clone(snap.Bytes())
		var r io.Reader
		left := func() int { return 0 }
		switch kind {
		case "bytes.Reader":
			br := bytes.NewReader(data)
			r, left = br, br.Len
		case "bytes.Buffer":
			bb := bytes.NewBuffer(data)
			r, left = bb, bb.Len
		default:
			r = struct{ io.Reader }{bytes.NewReader(data)}
		}
		e := formatEngine(t, n)
		if err := e.ReadSnapshot(r); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if left() != 0 {
			t.Fatalf("%s: %d bytes left unread", kind, left())
		}
		for i := range data {
			data[i] = 0xa5
		}
		var again bytes.Buffer
		if err := e.WriteSnapshot(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap.Bytes()) {
			t.Fatalf("%s: the restored engine writes a different snapshot once its source is overwritten", kind)
		}
		got, err := e.PlaceBatch(txs[cut:], nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: transaction %d placed in %d, the uninterrupted engine %d", kind, cut+i, got[i], want[i])
			}
		}
	}
	if err := formatEngine(t, n).ReadSnapshot(bytes.NewReader(nil)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("empty reader: %v", err)
	}
	sink := inPlace{e: formatEngine(t, n), want: snap.Len()}
	if m, err := sink.Write(snap.Bytes()[:10]); m != 0 || err == nil || sink.e.Stats().Placed != 0 {
		t.Fatalf("a piece of a snapshot: wrote %d, %v, restored %d placements", m, err, sink.e.Stats().Placed)
	}
}
