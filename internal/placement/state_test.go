package placement

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// shardColumn encodes a 2-byte shard column by hand.
func shardColumn(shards ...uint16) []byte {
	b := binary.AppendUvarint(nil, uint64(len(shards)))
	for _, s := range shards {
		b = binary.LittleEndian.AppendUint16(b, s)
	}
	return b
}

func TestStateReaderColumns(t *testing.T) {
	var out bytes.Buffer
	w := NewStateWriter(&out)
	w.Uvarint(300)
	w.Uvarint(3)
	w.Int32s([]int32{-1, 0, 1 << 30})
	w.Uvarint(3)
	w.Uint64s([]uint64{0, 1, 1 << 60})
	w.Uvarint(4)
	w.Uint16s([]uint16{7, 65535})
	w.Uint16s([]uint16{0, 513}) // a column may be written in pieces
	w.String("\x7f")
	w.String("raw")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := UvarintLen(300) + ColumnSize(3, 4) + ColumnSize(3, 8) + ColumnSize(4, 2) + 1 + 3
	if w.Len() != want || int64(out.Len()) != want {
		t.Fatalf("wrote %d bytes (writer counted %d), sizes add up to %d", out.Len(), w.Len(), want)
	}

	r := NewStateReader(out.Bytes())
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("uvarint %d, want 300", v)
	}
	i32 := r.Column(4)
	if len(i32) != 12 || int32(binary.LittleEndian.Uint32(i32)) != -1 || binary.LittleEndian.Uint32(i32[8:]) != 1<<30 {
		t.Fatalf("int32 column % x", i32)
	}
	u64 := r.Column(8)
	if len(u64) != 24 || binary.LittleEndian.Uint64(u64[16:]) != 1<<60 {
		t.Fatalf("uint64 column % x", u64)
	}
	u16 := r.Column(2)
	if !bytes.Equal(u16, []byte{7, 0, 0xff, 0xff, 0, 0, 1, 2}) {
		t.Fatalf("uint16 column % x", u16)
	}
	if b := r.Byte(); b != 0x7f {
		t.Fatalf("byte %#x, want 0x7f", b)
	}
	if b := r.Bytes(3); string(b) != "raw" {
		t.Fatalf("bytes %q, want raw", b)
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("clean decode: err=%v, %d bytes left", r.Err(), r.Len())
	}
}

// TestStateWriterStreams: columns larger than the staging buffer reach the
// destination whole and in order, the running checksum covers every byte
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

	boom := errors.New("disk full")
	w := NewStateWriter(failingWriter{boom})
	w.Uint64s(vals)
	w.String("x")
	if err := w.Finish(); err != boom || w.Flush() != boom {
		t.Fatalf("write error not kept: Finish %v, then Flush %v", err, w.Flush())
	}
	w = NewStateWriter(&bytes.Buffer{})
	w.Fail(boom)
	w.Fail(errors.New("later"))
	if w.Flush() != boom {
		t.Fatalf("Fail did not stick: %v", w.Flush())
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
	t.Run("byte at end", func(t *testing.T) {
		r := NewStateReader(nil)
		if r.Byte() != 0 || r.Err() == nil {
			t.Fatal("Byte past end accepted")
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
		if r.Byte() != 0 || r.Column(4) != nil || r.Column(8) != nil || r.Bytes(1) != nil {
			t.Fatal("reads after a defect returned data")
		}
		if r.Err() != first {
			t.Fatalf("error replaced: %v -> %v", first, r.Err())
		}
	})
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
		err := a.RestoreState(NewStateReader(shardColumn(0)))
		if err == nil || !strings.Contains(err.Error(), "non-empty") {
			t.Fatalf("restore into non-empty assignment: %v", err)
		}
	})
	t.Run("shard out of range", func(t *testing.T) {
		a := NewAssignment(3, 4)
		err := a.RestoreState(NewStateReader(shardColumn(0, 7)))
		if err == nil || !strings.Contains(err.Error(), "shard 7") {
			t.Fatalf("out-of-range shard: %v", err)
		}
	})
	t.Run("truncated section", func(t *testing.T) {
		blob := shardColumn(0, 1)
		if err := NewAssignment(2, 4).RestoreState(NewStateReader(blob[:len(blob)-1])); err == nil {
			t.Fatal("truncated section accepted")
		}
	})
	t.Run("too many shards to write", func(t *testing.T) {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "2-byte shard column") {
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
		w.Int32s([]int32{-1, 0, 1 << 30, -1 << 31})
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
		if !slices.Equal(b.shards, a.shards) || !slices.Equal(b.counts, a.counts) {
			t.Fatalf("littleEndian=%v: restored assignment differs", le)
		}
		bad := shardColumn(3, 65535, 1)
		if _, err := restore(bad); err == nil || !strings.Contains(err.Error(), "transaction 1 in shard 65535") {
			t.Fatalf("littleEndian=%v: out-of-range shard: %v", le, err)
		}
	}
}
