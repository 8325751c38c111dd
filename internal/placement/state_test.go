package placement

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"optchain/internal/txgraph"
)

// stateOf serializes one Snapshotter section and checks that StateSize
// predicted its length.
func stateOf(t *testing.T, s Snapshotter) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewStateWriter(&buf)
	s.WriteState(w)
	if err := w.Flush(); err != nil {
		t.Fatalf("write state: %v", err)
	}
	if int64(buf.Len()) != s.StateSize() {
		t.Fatalf("StateSize %d, wrote %d", s.StateSize(), buf.Len())
	}
	return buf.Bytes()
}

// packedSection encodes the format-5 assignment section of the given
// decisions over k shards by hand: the decision count, then 64-bit
// little-endian words of decisions the fewest power-of-two bits wide that
// name k-1, the first in the lowest bits.
func packedSection(k int, shards ...uint16) []byte {
	b := 1
	for 1<<b < k {
		b *= 2
	}
	per := 64 / b
	words := make([]uint64, (len(shards)+per-1)/per)
	for i, s := range shards {
		words[i/per] |= uint64(s) << (i % per * b)
	}
	out := binary.AppendUvarint(nil, uint64(len(shards)))
	for _, w := range words {
		out = binary.LittleEndian.AppendUint64(out, w)
	}
	return out
}

// putCounts writes vals as the values of a count column, a block at a
// time through the writer's staging space.
func putCounts(w *StateWriter, vals []uint32) {
	for len(vals) > 0 {
		m := min(len(vals), 4096)
		b, at := w.Stage(binary.MaxVarintLen32*m), 0
		for _, v := range vals[:m] {
			at += PutCount(b[at:], v)
		}
		w.Commit(at)
		vals = vals[m:]
	}
}

func TestStateReaderColumns(t *testing.T) {
	var out bytes.Buffer
	w := NewStateWriter(&out)
	w.Uvarint(300)
	counts := []uint32{0, 127, 128, 1 << 20, math.MaxInt32}
	w.Uvarint(uint64(len(counts)))
	w.Uvarint(1 + 1 + 2 + 3 + 5)
	putCounts(w, counts[:2])
	putCounts(w, counts[2:]) // a column may be written in pieces
	w.Uvarint(3)
	w.Uint64s([]uint64{0, 1, 1 << 60})
	w.Uvarint(4)
	w.Uint16s([]uint16{7, 65535})
	w.Shards([]uint16{0, 513}, 2)
	narrowed := []uint16{0, 7, 255, 1, 2, 3, 4, 5, 6, 8, 9} // past eight at a time
	w.Uvarint(uint64(len(narrowed)))
	w.Shards(narrowed, 1)
	w.String("raw")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := UvarintLen(300) + CountsSize(len(counts), 12) + ColumnSize(3, 8) + ColumnSize(4, 2) + ColumnSize(len(narrowed), 1) + 3
	if w.Len() != want || int64(out.Len()) != want {
		t.Fatalf("wrote %d bytes (writer counted %d), sizes add up to %d", out.Len(), w.Len(), want)
	}

	r := NewStateReader(out.Bytes())
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("uvarint %d, want 300", v)
	}
	col := r.Counts()
	if col.N != len(counts) || len(col.Data) != 12 {
		t.Fatalf("count column of %d values in %d bytes", col.N, len(col.Data))
	}
	for i, at := 0, 0; i <= col.N; i++ {
		v, next, ok := nextCount(col.Data, at)
		if i == col.N {
			if ok || CountDefect(col.Data, at) != "truncated uvarint" {
				t.Fatalf("a count past the column's end: %d, %v (%s)", v, ok, CountDefect(col.Data, at))
			}
			break
		}
		if !ok || v != counts[i] {
			t.Fatalf("count %d: %d (%v), want %d", i, v, ok, counts[i])
		}
		at = next
	}
	u64 := r.Column(8)
	if len(u64) != 24 || binary.LittleEndian.Uint64(u64[16:]) != 1<<60 {
		t.Fatalf("uint64 column % x", u64)
	}
	u16 := r.Column(2)
	if !bytes.Equal(u16, []byte{7, 0, 0xff, 0xff, 0, 0, 1, 2}) {
		t.Fatalf("uint16 column % x", u16)
	}
	u8 := r.Column(1)
	widened := make([]uint16, len(u8))
	Widen(widened, u8)
	if !slices.Equal(widened, narrowed) || Shard(u8, 2, 1) != 255 || Shard(u16, 1, 2) != 65535 {
		t.Fatalf("1-byte shard column % x", u8)
	}
	if b := r.Bytes(3); string(b) != "raw" {
		t.Fatalf("bytes %q, want raw", b)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("clean decode: err=%v, %d bytes left", r.Err(), r.Len())
	}
}

// TestStateWriterStreams: columns larger than the staging buffer, fixed
// width or uvarints, reach the destination whole and in order, the running checksum covers every byte
// but its own four, a nested writer passes large blocks through, and the
// first write error sticks.
func TestStateWriterStreams(t *testing.T) {
	vals := make([]uint64, 3*stageBytes/8+5)
	for i := range vals {
		vals[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	var inner, outer bytes.Buffer
	env := NewStateWriter(&outer)
	env.String("envelope")
	for _, dst := range []*StateWriter{NewStateWriter(&inner), NewStateWriter(env)} {
		dst.Uvarint(uint64(len(vals)))
		dst.Uint64s(vals)
		dst.String("\t")
		if err := dst.Finish(); err != nil {
			t.Fatal(err)
		}
		if want := ColumnSize(len(vals), 8) + 1 + 4; dst.Len() != want {
			t.Fatalf("writer counted %d bytes, want %d", dst.Len(), want)
		}
	}
	if err := env.Finish(); err != nil {
		t.Fatal(err)
	}
	section := inner.Bytes()
	body, sum := section[:len(section)-4], binary.LittleEndian.Uint32(section[len(section)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		t.Fatal("section checksum does not cover its body")
	}
	col := NewStateReader(body).Column(8)
	for i, v := range vals {
		if binary.LittleEndian.Uint64(col[8*i:]) != v {
			t.Fatalf("element %d differs after streaming", i)
		}
	}
	whole := outer.Bytes()
	if !bytes.Equal(whole[len("envelope"):len(whole)-4], section) {
		t.Fatal("nested section differs from the stand-alone one")
	}
	if crc32.ChecksumIEEE(whole[:len(whole)-4]) != binary.LittleEndian.Uint32(whole[len(whole)-4:]) {
		t.Fatal("envelope checksum does not cover the nested section")
	}

	// A count column of more bytes than the staging buffer holds, its
	// values from 1 to 5 bytes long.
	counts := make([]uint32, stageBytes/2)
	size := int64(0)
	for i := range counts {
		counts[i] = uint32(i*i*2654435761) >> (i % 32) & math.MaxInt32
		size += UvarintLen(uint64(counts[i]))
	}
	var cb bytes.Buffer
	cw := NewStateWriter(&cb)
	cw.Uvarint(uint64(len(counts)))
	cw.Uvarint(uint64(size))
	putCounts(cw, counts)
	if err := cw.Flush(); err != nil || cw.Len() != CountsSize(len(counts), size) || int64(cb.Len()) != cw.Len() || size <= stageBytes {
		t.Fatalf("count column: %v, wrote %d (writer counted %d), want %d past the %d staged", err, cb.Len(), cw.Len(), CountsSize(len(counts), size), stageBytes)
	}
	cr := NewStateReader(cb.Bytes())
	cc := cr.Counts()
	for i, at := 0, 0; i < len(counts); i++ {
		v, next, ok := nextCount(cc.Data, at)
		if !ok || v != counts[i] {
			t.Fatalf("count %d came back as %d (%v), want %d", i, v, ok, counts[i])
		}
		at = next
	}

	boom := errors.New("disk full")
	w := NewStateWriter(failingWriter{boom})
	w.Uint64s(vals)
	w.String("x")
	if err := w.Finish(); err != boom || w.Flush() != boom {
		t.Fatalf("write error not kept: Finish %v, then Flush %v", err, w.Flush())
	}
	w = NewStateWriter(failingWriter{boom})
	w.String("x")
	w.Flush()
	w.w = failingWriter{errors.New("later")}
	w.String("y")
	if w.Flush() != boom {
		t.Fatalf("the first write error did not stick: %v", w.Flush())
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }

func TestUvarintLen(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, 1 << 62, 1<<64 - 1} {
		if got, want := UvarintLen(v), int64(len(binary.AppendUvarint(nil, v))); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestStateReaderDefects: every malformed section fails, and the first
// defect sticks — later reads return zero values and the original error.
func TestStateReaderDefects(t *testing.T) {
	t.Run("truncated varint", func(t *testing.T) {
		r := NewStateReader([]byte{0x80}) // continuation bit, no next byte
		if r.Uvarint() != 0 || r.Err() == nil {
			t.Fatalf("truncated varint: err=%v", r.Err())
		}
	})
	t.Run("oversized column prefix", func(t *testing.T) {
		// A corrupt length prefix claiming ~2^61 entries must fail the bound
		// check, not attempt the allocation.
		r := NewStateReader(binary.AppendUvarint(nil, 1<<61))
		if r.Column(4) != nil || r.Err() == nil {
			t.Fatal("oversized prefix accepted")
		}
		if !strings.Contains(r.Err().Error(), "exceeds") {
			t.Fatalf("unexpected error: %v", r.Err())
		}
	})
	t.Run("short raw bytes", func(t *testing.T) {
		r := NewStateReader([]byte{1, 2})
		if r.Bytes(3) != nil || r.Err() == nil {
			t.Fatal("short Bytes accepted")
		}
	})
	t.Run("negative raw bytes", func(t *testing.T) {
		r := NewStateReader([]byte{1, 2})
		if r.Bytes(-1) != nil || r.Err() == nil {
			t.Fatal("negative Bytes accepted")
		}
	})
	t.Run("varint past 64 bits", func(t *testing.T) {
		r := NewStateReader(append(bytes.Repeat([]byte{0xff}, 10), 0x01))
		if r.Uvarint() != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "overflows 64 bits") {
			t.Fatalf("11-byte varint: err=%v", r.Err())
		}
	})
	t.Run("non-minimal varint", func(t *testing.T) {
		// 1 in two bytes: a value the writer never encodes so.
		r := NewStateReader([]byte{0x81, 0x00})
		if r.Uvarint() != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "non-minimal") {
			t.Fatalf("non-minimal varint: err=%v", r.Err())
		}
	})
	t.Run("count column longer than the section", func(t *testing.T) {
		r := NewStateReader([]byte{1, 2, 0})
		if col := r.Counts(); col.Data != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "exceeds 1 remaining") {
			t.Fatalf("count column of 2 bytes in 1: err=%v", r.Err())
		}
	})
	t.Run("more counts than bytes", func(t *testing.T) {
		r := NewStateReader([]byte{3, 2, 0, 0})
		if col := r.Counts(); col.Data != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "3 values in 2 bytes") {
			t.Fatalf("3 counts in 2 bytes: err=%v", r.Err())
		}
	})
	t.Run("errors stick", func(t *testing.T) {
		r := NewStateReader([]byte{0x80})
		r.Uvarint()
		first := r.Err()
		if first == nil {
			t.Fatal("no defect recorded")
		}
		// Every later read is a zero-value no-op reporting the first defect.
		if r.Column(4) != nil || r.Column(8) != nil || r.Bytes(1) != nil || r.Counts().Data != nil {
			t.Fatal("reads after a defect returned data")
		}
		if r.Err() != first {
			t.Fatalf("error replaced: %v -> %v", first, r.Err())
		}
	})
}

// TestNextCount: a count is a minimal uvarint of at most math.MaxInt32;
// anything else is refused, and CountDefect says why.
func TestNextCount(t *testing.T) {
	for _, tc := range []struct {
		b    []byte
		want uint32
		why  string // empty for a count
	}{
		{[]byte{0}, 0, ""},
		{[]byte{0x7f}, 127, ""},
		{[]byte{0x80, 0x01}, 128, ""},
		{binary.AppendUvarint(nil, 70_000), 70_000, ""},
		{binary.AppendUvarint(nil, math.MaxInt32), math.MaxInt32, ""},
		{nil, 0, "truncated uvarint"},
		{[]byte{0x80}, 0, "truncated uvarint"},
		{[]byte{0xff, 0xff}, 0, "truncated uvarint"},
		{[]byte{0x80, 0x00}, 0, "non-minimal uvarint"},
		{[]byte{0xff, 0x80, 0x00}, 0, "non-minimal uvarint"},
		{binary.AppendUvarint(nil, math.MaxInt32+1), 0, "2147483648 exceeds 2147483647"},
		{binary.AppendUvarint(nil, 1<<63), 0, "9223372036854775808 exceeds 2147483647"},
		{append(bytes.Repeat([]byte{0xff}, 9), 0x02), 0, "uvarint overflows 64 bits"},
		{append(bytes.Repeat([]byte{0x80}, 10), 0x01), 0, "uvarint overflows 64 bits"},
	} {
		// The count is read where it starts, behind another one.
		b := append([]byte{5}, tc.b...)
		v, next, ok := nextCount(b, 1)
		if tc.why == "" {
			if !ok || v != tc.want || next != len(b) {
				t.Errorf("% x: %d, next %d, %v; want %d, %d", tc.b, v, next, ok, tc.want, len(b))
			}
			continue
		}
		if ok || next != 1 {
			t.Errorf("% x: accepted as %d, next %d", tc.b, v, next)
		}
		if why := CountDefect(b, 1); why != tc.why {
			t.Errorf("% x: %q, want %q", tc.b, why, tc.why)
		}
	}
}

// TestDecodeCounts: a block of counts decodes eight one-byte values at a
// time and any other value alone, to the same values nextCount gives, and
// stops on the first value that is no count, there.
func TestDecodeCounts(t *testing.T) {
	var vals []uint32
	var b []byte
	for i := range 300 {
		v := uint32(i % 97)
		if i%41 == 40 {
			v = uint32(i) << (i % 23) & math.MaxInt32
		}
		vals = append(vals, v)
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, block := range []int{1, 7, 8, 9, 64, 300} {
		at := 0
		for lo := 0; lo < len(vals); lo += block {
			dst := make([]uint32, min(block, len(vals)-lo))
			if n := DecodeCounts(dst, b, &at); n != len(dst) || !slices.Equal(dst, vals[lo:lo+n]) {
				t.Fatalf("blocks of %d, from %d: %d decoded, %v, want %v", block, lo, n, dst, vals[lo:lo+len(dst)])
			}
		}
		if at != len(b) {
			t.Fatalf("blocks of %d: stopped at %d of %d bytes", block, at, len(b))
		}
	}
	// A non-minimal value after eleven good ones.
	bad := append(bytes.Repeat([]byte{3}, 11), 0x85, 0x00, 1)
	dst := make([]uint32, 14)
	at := 0
	if n := DecodeCounts(dst, bad, &at); n != 11 || at != 11 || CountDefect(bad, at) != "non-minimal uvarint" {
		t.Fatalf("%d decoded, stopped at %d (%s), want 11 at 11", n, at, CountDefect(bad, at))
	}
	// Fewer bytes than values.
	at = 0
	if n := DecodeCounts(dst, bad[:5], &at); n != 5 || at != 5 {
		t.Fatalf("%d decoded from 5 bytes, stopped at %d", n, at)
	}
}

func TestAssignmentStateRoundTrip(t *testing.T) {
	const k, n = 3, 10
	a := NewAssignment(k, n)
	for i := 0; i < n; i++ {
		a.Place(txgraph.Node(i), i%k)
	}
	blob := stateOf(t, a)

	b := NewAssignment(k, n)
	r := NewStateReader(blob)
	if err := b.RestoreState(r); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after restore", r.Len())
	}
	if b.Len() != n {
		t.Fatalf("restored %d placements, want %d", b.Len(), n)
	}
	for i := 0; i < n; i++ {
		if b.ShardOf(txgraph.Node(i)) != a.ShardOf(txgraph.Node(i)) {
			t.Fatalf("tx %d: restored shard %d, want %d", i, b.ShardOf(txgraph.Node(i)), a.ShardOf(txgraph.Node(i)))
		}
	}
	got, want := b.Counts(), a.Counts()
	for s := range want {
		if got[s] != want[s] {
			t.Fatalf("shard %d tally %d, want %d", s, got[s], want[s])
		}
	}
}

func TestAssignmentRestoreDefects(t *testing.T) {
	t.Run("non-empty receiver", func(t *testing.T) {
		a := NewAssignment(2, 4)
		a.Place(0, 1)
		err := a.RestoreState(NewStateReader(packedSection(2, 0)))
		if err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Fatalf("restore into non-empty assignment: %v", err)
		}
	})
	t.Run("shard out of range", func(t *testing.T) {
		a := NewAssignment(3, 4)
		err := a.RestoreState(NewStateReader(packedSection(3, 0, 3)))
		if err == nil || !strings.Contains(err.Error(), "transaction 1 in shard 3 of 3") {
			t.Fatalf("out-of-range shard: %v", err)
		}
	})
	t.Run("padding bits set", func(t *testing.T) {
		blob := packedSection(3, 0, 2)
		blob[len(blob)-1] = 0x80 // the last of the word's 32 decisions
		err := NewAssignment(3, 4).RestoreState(NewStateReader(blob))
		if err == nil || !strings.Contains(err.Error(), "sets bits past transaction 1") {
			t.Fatalf("padding bits set: %v", err)
		}
	})
	t.Run("empty section", func(t *testing.T) {
		err := NewAssignment(2, 4).RestoreState(NewStateReader(nil))
		if err == nil || !strings.Contains(err.Error(), "truncated varint") {
			t.Fatalf("empty section: %v", err)
		}
	})
	t.Run("truncated section", func(t *testing.T) {
		blob := packedSection(2, 0, 1)
		err := NewAssignment(2, 4).RestoreState(NewStateReader(blob[:len(blob)-1]))
		if err == nil || !strings.Contains(err.Error(), "2 decisions exceed the 7 remaining bytes") {
			t.Fatalf("truncated section: %v", err)
		}
	})
	t.Run("more decisions than words", func(t *testing.T) {
		// 65 one-bit decisions need two words.
		blob := binary.AppendUvarint(nil, 65)
		blob = append(blob, make([]byte, 8)...)
		err := NewAssignment(2, 4).RestoreState(NewStateReader(blob))
		if err == nil || !strings.Contains(err.Error(), "65 decisions exceed the 8 remaining bytes") {
			t.Fatalf("65 decisions in one word: %v", err)
		}
	})
	t.Run("too many shards to write", func(t *testing.T) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "16-bit decision") {
				t.Fatalf("assignment over %d shards built: %v", MaxShards+1, r)
			}
		}()
		NewAssignment(MaxShards+1, 0)
	})
}

// TestBaselineSnapshotters: Random and Greedy snapshot mid-stream and the
// restored placer continues with exactly the decisions of an uninterrupted
// run — the Snapshotter decision-fidelity contract.
func TestBaselineSnapshotters(t *testing.T) {
	const k, n, half = 4, 400, 200
	// Synthetic stream: tx i spends outputs of up to two earlier txs.
	inputsOf := func(i int) []txgraph.Node {
		var ins []txgraph.Node
		if i > 0 {
			ins = append(ins, txgraph.Node(i*7%i))
		}
		if i > 1 {
			v := txgraph.Node(i * 13 % (i - 1))
			if v != ins[0] {
				ins = append(ins, v)
			}
		}
		return ins
	}
	mks := map[string]func() interface {
		Placer
		Snapshotter
	}{
		"Random": func() interface {
			Placer
			Snapshotter
		} {
			return NewRandom(k, n)
		},
		"Greedy": func() interface {
			Placer
			Snapshotter
		} {
			return NewGreedy(k, n, 0.1)
		},
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			ref, cut := mk(), mk()
			want := make([]int, n)
			for i := 0; i < n; i++ {
				ins := inputsOf(i)
				want[i] = ref.Place(txgraph.Node(i), ins)
				if i < half {
					if got := cut.Place(txgraph.Node(i), ins); got != want[i] {
						t.Fatalf("tx %d: %d vs reference %d before snapshot", i, got, want[i])
					}
				}
			}
			blob := stateOf(t, cut)

			fresh := mk()
			r := NewStateReader(blob)
			if err := fresh.RestoreState(r); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if r.Len() != 0 {
				t.Fatalf("%d bytes left after restore", r.Len())
			}
			if fresh.Assignment().Len() != half {
				t.Fatalf("restored %d placements, want %d", fresh.Assignment().Len(), half)
			}
			for i := half; i < n; i++ {
				if got := fresh.Place(txgraph.Node(i), inputsOf(i)); got != want[i] {
					t.Fatalf("%s diverges at tx %d after restore: %d, uninterrupted run chose %d",
						fresh.Name(), i, got, want[i])
				}
			}
		})
	}
}

// TestColumnsOnEitherByteOrder: the element writers and the assignment's
// decoder give the same bytes and the same state whether they take a
// column's memory as its encoding (a little-endian host) or encode and
// decode it an element at a time (any other host), for columns smaller and
// larger than the staging buffer and elements with their high bit set.
func TestColumnsOnEitherByteOrder(t *testing.T) {
	defer func(le bool) { littleEndian = le }(littleEndian)
	big := make([]uint64, stageBytes/8+3)
	for i := range big {
		big[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	a := NewAssignment(65535, 0)
	for i := range 5000 {
		a.Place(txgraph.Node(i), i*7919%65535)
	}
	write := func() []byte {
		var out bytes.Buffer
		w := NewStateWriter(&out)
		w.Shards([]uint16{7, 255}, 1)
		w.Uint16s([]uint16{7, 65535})
		w.Uint64s(big)
		a.WriteState(w)
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	restore := func(blob []byte) (*Assignment, error) {
		b := NewAssignment(65535, 0)
		return b, b.RestoreState(NewStateReader(blob))
	}
	littleEndian = true
	native := write()
	littleEndian = false
	if portable := write(); !bytes.Equal(native, portable) {
		t.Fatal("the element-at-a-time writers encode differently")
	}
	section := stateOf(t, a)
	for _, le := range []bool{true, false} {
		littleEndian = le
		b, err := restore(section)
		if err != nil {
			t.Fatal(err)
		}
		if b.n != a.n || !slices.Equal(b.words, a.words) || !slices.Equal(b.counts, a.counts) {
			t.Fatalf("littleEndian=%v: restored assignment differs", le)
		}
		bad := packedSection(65535, 3, 65535, 1)
		if _, err := restore(bad); err == nil || !strings.Contains(err.Error(), "transaction 1 in shard 65535") {
			t.Fatalf("littleEndian=%v: out-of-range shard: %v", le, err)
		}
	}
}

// TestShardWidth: slab shard ids and span lengths take a byte up to 255
// shards, where every id below k and every length up to k fits one, and
// two bytes past it.
func TestShardWidth(t *testing.T) {
	for k, want := range map[int]int{1: 1, 16: 1, 255: 1, 256: 2, MaxShards: 2} {
		if got := ShardWidth(k); got != want {
			t.Errorf("ShardWidth(%d) = %d, want %d", k, got, want)
		}
	}
}

// TestPackedAssignment: at every decision width (1 bit at k <= 2 up to 16
// bits above k = 256) the packed assignment answers as a plain []int of its
// decisions does, writes the format-5 section a hand encoder gives those
// decisions (the count, then the packed words), restores from it on either
// byte order, and refuses a section that holds a decision of k where the
// width can hold one, naming its transaction, or sets a bit past the last
// decision. The stream crosses the staging buffer's size and leaves the
// last word part filled at every width.
func TestPackedAssignment(t *testing.T) {
	defer func(le bool) { littleEndian = le }(littleEndian)
	const n = stageBytes + 1001
	for _, k := range []int{1, 2, 3, 4, 5, 16, 17, 255, 256, 257, 65535} {
		t.Run(fmt.Sprint("k=", k), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(k), 1))
			a := NewAssignment(k, n)
			ref, col := make([]int, n), make([]uint16, n)
			for i := range n {
				ref[i] = rng.IntN(k)
				if i%7 == 0 {
					ref[i] = k - 1
				}
				col[i] = uint16(ref[i])
				a.Place(txgraph.Node(i), ref[i])
			}
			same := func(t *testing.T, b *Assignment) {
				t.Helper()
				if b.Len() != n {
					t.Fatalf("Len %d, want %d", b.Len(), n)
				}
				counts := make([]int64, k)
				for i, s := range ref {
					if got := b.ShardOf(txgraph.Node(i)); got != s {
						t.Fatalf("ShardOf(%d) = %d, want %d", i, got, s)
					}
					counts[s]++
				}
				if !slices.Equal(b.Counts(), counts) {
					t.Fatal("Counts differ from the decisions'")
				}
				if want := float64(slices.Max(counts)) * float64(k) / n; b.MaxShare() != want {
					t.Fatalf("MaxShare %v, want %v", b.MaxShare(), want)
				}
			}
			same(t, a)
			for range 1000 {
				ins := []txgraph.Node{txgraph.Node(rng.IntN(n)), txgraph.Node(rng.IntN(n))}
				s := rng.IntN(k)
				want := ref[ins[0]] != s || ref[ins[1]] != s
				if a.IsCrossShard(ins, s) != want {
					t.Fatalf("IsCrossShard(%v, %d) = %v", ins, s, !want)
				}
			}
			section := packedSection(k, col...)
			var bad []byte // transaction n/2 in shard k, when its width can say so
			if bits := 1 << a.lw; k < 1<<bits {
				planted := slices.Clone(col)
				planted[n/2] = uint16(k)
				bad = packedSection(k, planted...)
			}
			padded := slices.Clone(section)
			padded[len(padded)-1] |= 0x80 // the last word's top bit, past decision n-1
			for _, le := range []bool{true, false} {
				littleEndian = le
				if got := stateOf(t, a); !bytes.Equal(got, section) {
					t.Fatalf("littleEndian=%v: the section differs from the hand-encoded format-5 one", le)
				}
				for _, hint := range []int{0, n} {
					b := NewAssignment(k, hint)
					r := NewStateReader(section)
					if err := b.RestoreState(r); err != nil || r.Len() != 0 {
						t.Fatalf("littleEndian=%v: restore: %v, %d bytes left", le, err, r.Len())
					}
					same(t, b)
				}
				if bad != nil {
					err := NewAssignment(k, 0).RestoreState(NewStateReader(bad))
					if want := fmt.Sprintf("transaction %d in shard %d of %d", n/2, k, k); err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("littleEndian=%v: a decision of k: %v, want %q", le, err, want)
					}
				}
				err := NewAssignment(k, 0).RestoreState(NewStateReader(padded))
				if want := fmt.Sprintf("sets bits past transaction %d", n-1); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("littleEndian=%v: a padding bit: %v, want %q", le, err, want)
				}
			}
		})
	}
}

// TestAssignmentBytes: a million decisions at k = 16 hold half a byte each,
// plus the counts.
func TestAssignmentBytes(t *testing.T) {
	const k, n = 16, 1_000_000
	a := NewAssignment(k, n)
	for i := range n {
		a.Place(txgraph.Node(i), i%k)
	}
	if got, want := a.Bytes(), int64(n/2+8*k); got != want {
		t.Fatalf("Bytes() = %d, want %d", got, want)
	}
}

// BenchmarkAssignmentState prices writing and restoring a million-decision
// assignment section: the words' memory is the section, and the restore
// checks and tallies each decision, 4 bits wide at k = 16 and 8 at k = 62.
func BenchmarkAssignmentState(b *testing.B) {
	const n = 1_000_000
	for _, k := range []int{16, 62} {
		a := NewAssignment(k, n)
		for i := range n {
			a.Place(txgraph.Node(i), i*7919%k)
		}
		var buf bytes.Buffer
		b.Run(fmt.Sprint("k=", k), func(b *testing.B) {
			for range b.N {
				buf.Reset()
				w := NewStateWriter(&buf)
				a.WriteState(w)
				if err := w.Flush(); err != nil {
					b.Fatal(err)
				}
				if err := NewAssignment(k, n).RestoreState(NewStateReader(buf.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/decision")
		})
	}
}
