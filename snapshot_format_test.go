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

	// A transaction of 70,000 outputs (3 uvarint bytes) that every later one
	// spends: its out-degree takes a second byte at 128 spenders and a third
	// at 16,384, and the size stays exact on either side of both, written
	// and restored.
	const wide = 16_400
	txs := make([]StreamTx, wide)
	txs[0].Outputs = 70_000
	for u := 1; u < wide; u++ {
		txs[u] = StreamTx{Inputs: []int{0}, Outputs: 1}
	}
	e = formatEngine(t, wide)
	for _, placed := range []int{128, 129, 130, 16_384, 16_385, 16_386, wide} {
		if _, err := e.PlaceBatch(txs[e.Stats().Placed:placed], nil); err != nil {
			t.Fatal(err)
		}
		size, err := e.SnapshotSize()
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := e.WriteSnapshot(&snap); err != nil {
			t.Fatalf("%d placed: %v", placed, err)
		}
		if int64(snap.Len()) != size {
			t.Fatalf("%d placed: SnapshotSize %d, WriteSnapshot wrote %d", placed, size, snap.Len())
		}
		fresh := formatEngine(t, wide)
		if err := fresh.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatalf("%d placed: %v", placed, err)
		}
		if again, err := fresh.SnapshotSize(); err != nil || again != size {
			t.Fatalf("%d placed: the restored engine's SnapshotSize is %d (%v), want %d", placed, again, err, size)
		}
	}

	// Every running total the size is made of, moved both ways: 0 declares
	// 65,536 outputs (past what a node record counts) and 1 declares 200.
	// Every later transaction spends 0 until it is spent out, and the next
	// 200 spend 1 too, so 1's out-degree crosses 128 while it is held, and
	// both then leave the held columns, their counts of 3 and 2 uvarint
	// bytes with them (0's segment is compacted, so its large count goes
	// too). The last two transactions name them again past their counts:
	// late references, which the section counts.
	const many = 65_536
	txs = make([]StreamTx, many+3)
	txs[0].Outputs, txs[1].Outputs = many, 200
	for u := 1; u < len(txs); u++ {
		txs[u].Inputs = []int{0}
		if u >= 2 && u <= 201 || u == many+1 {
			txs[u].Inputs = append(txs[u].Inputs, 1)
		}
		if u > 1 {
			txs[u].Outputs = 1
		}
	}
	e = formatEngine(t, len(txs))
	for _, placed := range []int{1, 2, 129, 130, 201, 202, many, many + 1, many + 2, many + 3} {
		if _, err := e.PlaceBatch(txs[e.Stats().Placed:placed], nil); err != nil {
			t.Fatal(err)
		}
		size, err := e.SnapshotSize()
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := e.WriteSnapshot(&snap); err != nil {
			t.Fatalf("%d placed: %v", placed, err)
		}
		if int64(snap.Len()) != size {
			t.Fatalf("%d placed: SnapshotSize %d, WriteSnapshot wrote %d", placed, size, snap.Len())
		}
		fresh := formatEngine(t, len(txs))
		if err := fresh.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatalf("%d placed: %v", placed, err)
		}
		if again, err := fresh.SnapshotSize(); err != nil || again != size {
			t.Fatalf("%d placed: the restored engine's SnapshotSize is %d (%v), want %d", placed, again, err, size)
		}
	}
	if st := e.Stats(); st.RetiredTxs != 2 || st.RetiredRefs != 3 {
		t.Fatalf("%d retired, %d late references: want 2 and 3", st.RetiredTxs, st.RetiredRefs)
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

// TestSnapshotVersion1Rejected: a well-formed stream of the first format
// (4-byte shard ids and span lengths) fails with ErrBadSnapshot naming its
// version; there is no second reader. (The committed format-2 and format-4
// streams and format-3 ones are refused the same way:
// TestFormat2SnapshotsRefused, TestSnapshotVersion3Rejected.)
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
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "version 1, want 6") {
		t.Fatalf("version 1 stream: %v", err)
	}
}

// countCol encodes a count column holding vals.
func countCol(vals ...uint64) []byte {
	var data []byte
	for _, v := range vals {
		data = binary.AppendUvarint(data, v)
	}
	return rawCountCol(len(vals), data...)
}

// rawCountCol encodes a count column that claims n values in data.
func rawCountCol(n int, data ...byte) []byte {
	b := binary.AppendUvarint(nil, uint64(n))
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

// byteCol encodes a column of 1-byte shard ids or span lengths.
func byteCol(vals ...byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(vals))), vals...)
}

// wordCol encodes a column of 8-byte words.
func wordCol(words ...uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(len(words)))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// packedAsn encodes the format-5 assignment section of the given decisions
// over 8 shards: their count, then 16 4-bit decisions a word, the first in
// the lowest bits.
func packedAsn(shards ...byte) []byte {
	words := make([]uint64, (len(shards)+15)/16)
	for i, s := range shards {
		words[i/16] |= uint64(s) << (4 * (i % 16))
	}
	b := binary.AppendUvarint(nil, uint64(len(shards)))
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// handSnapshot assembles a format-6 stream for an engine configured as e,
// holding the given placed transactions, around the strategy's state
// section.
func handSnapshot(e *Engine, placed int, section []byte) []byte {
	b := []byte(snapMagic)
	b = binary.AppendUvarint(b, snapVersion)
	name := strings.ToLower(e.strategy)
	b = binary.AppendUvarint(b, uint64(len(name)))
	b = append(b, name...)
	b = binary.AppendUvarint(b, uint64(e.shards))
	b = binary.AppendUvarint(b, math.Float64bits(e.alpha))
	b = binary.AppendUvarint(b, math.Float64bits(e.l2sWeight))
	b = binary.AppendUvarint(b, uint64(placed)) // capacity hint
	b = binary.AppendUvarint(b, uint64(placed))
	b = append(b, 0, 0) // cross total and count
	return seal(append(b, section...))
}

// TestSnapshotColumnDefects: ReadSnapshot refuses, with ErrBadSnapshot
// naming the node, entry or column, every defect of the packed
// assignment, the held bitmap, the late references, the count columns and
// the narrow shard columns a format-6 stream can carry. The base stream is
// two transactions in shard 0 of 8, each declaring 2 outputs, the second
// spending the first: both are held, 0 with one spender; each case changes
// one part of it.
func TestSnapshotColumnDefects(t *testing.T) {
	const q1 = 1 << 32 // 1.0 in Q32.32
	type parts struct{ asn, bitmap, refs, outs, degs, lens, slab []byte }
	base := parts{
		asn:    packedAsn(0, 0),
		bitmap: wordCol(0b11),
		refs:   []byte{0},
		outs:   countCol(2, 2),
		degs:   countCol(1, 0),
		lens:   byteCol(1, 1),
		slab:   byteCol(0, 0),
	}
	build := func(p parts) []byte {
		entries := int(p.slab[0]) // every slab here is shorter than 128 entries
		vals := binary.AppendUvarint(nil, uint64(entries))
		for range entries {
			vals = binary.LittleEndian.AppendUint64(vals, q1)
		}
		section := slices.Concat(p.asn, p.bitmap, p.refs, p.outs, p.degs, p.lens, p.slab, vals)
		return handSnapshot(formatEngine(t, 2), 2, section)
	}
	if err := formatEngine(t, 2).ReadSnapshot(bytes.NewReader(build(base))); err != nil {
		t.Fatalf("the base stream: %v", err)
	}
	for name, tc := range map[string]struct {
		edit func(*parts)
		want string
	}{
		"truncated output count": {func(p *parts) { p.outs = rawCountCol(2, 2, 0x80) }, "output count of node 1: truncated uvarint"},
		"output count over 10 bytes": {func(p *parts) {
			p.outs = rawCountCol(2, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)
		}, "output count of node 1: uvarint overflows 64 bits"},
		"output count overflows":   {func(p *parts) { p.outs = rawCountCol(2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 2) }, "output count of node 0: uvarint overflows 64 bits"},
		"non-minimal output count": {func(p *parts) { p.outs = rawCountCol(2, 0x82, 0x00, 2) }, "output count of node 0: non-minimal uvarint"},
		"output count above MaxInt32": {func(p *parts) { p.outs = countCol(2, math.MaxInt32+1) },
			"output count of node 1: 2147483648 exceeds 2147483647"},
		"out-degree above MaxInt32":  {func(p *parts) { p.degs = countCol(1, 1<<40) }, "out-degree of node 1: 1099511627776 exceeds 2147483647"},
		"non-minimal out-degree":     {func(p *parts) { p.degs = rawCountCol(2, 0x81, 0x80, 0x00, 0) }, "out-degree of node 0: non-minimal uvarint"},
		"truncated out-degree":       {func(p *parts) { p.degs = rawCountCol(2, 1, 0xc0) }, "out-degree of node 1: truncated uvarint"},
		"fewer counts than bytes":    {func(p *parts) { p.outs = rawCountCol(2, 2, 2, 2) }, "output-count column holds 1 bytes past its 2 values"},
		"more counts than bytes":     {func(p *parts) { p.outs = rawCountCol(2, 2) }, "count column of 2 values in 1 bytes"},
		"out-degrees past the nodes": {func(p *parts) { p.degs = rawCountCol(2, 1, 0, 0) }, "out-degree column holds 1 bytes past its 2 values"},
		"assignment shard of k":      {func(p *parts) { p.asn = packedAsn(0, 8) }, "transaction 1 in shard 8 of 8"},
		"assignment padding": {func(p *parts) { p.asn = binary.LittleEndian.AppendUint64(binary.AppendUvarint(nil, 2), 1<<63) },
			"the assignment's last word sets bits past transaction 1"},
		"slab shard of k":                   {func(p *parts) { p.slab = byteCol(0, 200) }, "slab entry 1 names shard 200 of 8"},
		"span longer than k":                {func(p *parts) { p.lens = byteCol(9, 1) }, "span 0 has 9 entries, more than the 8 shards"},
		"bitmap of another word count":      {func(p *parts) { p.bitmap = wordCol(0b11, 0) }, "held bitmap of 2 words for 2 transactions"},
		"bitmap padding":                    {func(p *parts) { p.bitmap = wordCol(0b111) }, "held bitmap marks node 2, past the 2 transactions"},
		"fewer out-degrees than held nodes": {func(p *parts) { p.degs = countCol(1) }, "1 out-degrees for 2 held transactions"},
		"more span lengths than held nodes": {func(p *parts) { p.lens = byteCol(1, 1, 0) }, "3 span lengths for 2 held transactions"},
		"late references past an int64":     {func(p *parts) { p.refs = binary.AppendUvarint(nil, 1<<63) }, "9223372036854775808 late references"},
		"non-minimal late references":       {func(p *parts) { p.refs = []byte{0x80, 0x00} }, "non-minimal varint"},
		"held node spent out exactly": {func(p *parts) { p.degs, p.lens, p.slab = countCol(2, 0), byteCol(0, 1), byteCol(0) },
			"node 0 has had 2 spenders of its 2 outputs but is held"},
		"held node past its count":  {func(p *parts) { p.degs = countCol(3, 0) }, "node 0 has had 3 spenders of its 2 outputs but is held"},
		"spans short of the slab":   {func(p *parts) { p.slab = byteCol(0, 0, 1) }, "spans cover 2 of 3 slab entries"},
		"spans past the slab's end": {func(p *parts) { p.slab = byteCol(0) }, "span 1 (len 1 at offset 1) exceeds slab length 1"},
	} {
		p := base
		tc.edit(&p)
		err := formatEngine(t, 2).ReadSnapshot(bytes.NewReader(build(p)))
		if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want ErrBadSnapshot naming %q", name, err, tc.want)
		}
	}

	// A header that claims more transactions than the state has bits
	// for is refused before anything is sized from it.
	huge := handSnapshot(formatEngine(t, 2), 1<<40, slices.Concat(base.asn, base.bitmap, base.refs, base.outs, base.degs, base.lens, base.slab, []byte{0}))
	if err := formatEngine(t, 2).ReadSnapshot(bytes.NewReader(huge)); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "1099511627776 placed transactions in") {
		t.Errorf("a header claiming 2^40 placed transactions: %v", err)
	}
}

// TestSnapshotVersion3Rejected: a format-3 stream, here a T2S engine's
// stream with its version rewritten to 3 (the version is read first, so
// the bytes after it are not), is refused naming its version.
func TestSnapshotVersion3Rejected(t *testing.T) {
	const n = 200
	e, err := New(WithShards(8), WithStrategy("T2S"), WithStreamCapacity(n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PlaceBatch(chainStream(n), nil); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := e.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	v3 := bytes.Clone(snap.Bytes())
	v3[len(snapMagic)] = 3
	fresh, err := New(WithShards(8), WithStrategy("T2S"), WithStreamCapacity(n))
	if err != nil {
		t.Fatal(err)
	}
	err = fresh.ReadSnapshot(bytes.NewReader(seal(v3[:len(v3)-4])))
	if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), "version 3, want 6") {
		t.Fatalf("format-3 stream: %v", err)
	}
}

// TestAssignmentOnlySnapshots: a Greedy or OmniLedger engine's format-6
// stream is the header, the packed assignment and the checksum, nothing
// else; it restores an engine that writes the same bytes back and
// continues the stream as the uninterrupted engine does. The same stream
// with format 3's zero count column ahead of the assignment is refused.
func TestAssignmentOnlySnapshots(t *testing.T) {
	const n, cut = 400, 250
	txs := chainStream(n)
	for _, strategy := range []string{"Greedy", "OmniLedger"} {
		mk := func() *Engine {
			e, err := New(WithShards(8), WithStrategy(strategy), WithStreamCapacity(n))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := mk()
		placed, err := e.PlaceBatch(txs[:cut], nil)
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := e.WriteSnapshot(&snap); err != nil {
			t.Fatal(err)
		}
		shards := make([]byte, cut)
		for i, s := range placed {
			shards[i] = byte(s)
		}
		col := packedAsn(shards...)
		if body := snap.Bytes()[:snap.Len()-4]; !bytes.HasSuffix(body, col) {
			t.Fatalf("%s: the stream does not end in its packed assignment", strategy)
		}
		head := snap.Len() - 4 - len(col)
		if size, err := e.SnapshotSize(); err != nil || size != int64(snap.Len()) || head > 64 {
			t.Fatalf("%s: SnapshotSize %d (%v) for a %d-byte stream with a %d-byte header", strategy, size, err, snap.Len(), head)
		}
		want, err := e.PlaceBatch(txs[cut:], nil)
		if err != nil {
			t.Fatal(err)
		}

		fresh := mk()
		if err := fresh.ReadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		var again bytes.Buffer
		if err := fresh.WriteSnapshot(&again); err != nil || !bytes.Equal(again.Bytes(), snap.Bytes()) {
			t.Fatalf("%s: the restored engine writes a different stream back (%v)", strategy, err)
		}
		got, err := fresh.PlaceBatch(txs[cut:], nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: the restored engine places the rest as %v, the uninterrupted one as %v", strategy, got, want)
		}

		withCounts := slices.Concat(snap.Bytes()[:head], rawCountCol(cut, make([]byte, cut)...), col)
		if err := mk().ReadSnapshot(bytes.NewReader(seal(withCounts))); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("%s: a shard column behind a count column: %v", strategy, err)
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
