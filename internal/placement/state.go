package placement

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"unsafe"
)

// MaxShards is the largest shard count whose state the snapshot format and
// the T2S slab can hold: shard ids, and the length of a p'(v) vector (at
// most one entry per shard), are stored 2 bytes wide.
const MaxShards = 1<<16 - 1

// Snapshotter is implemented by strategies whose complete decision state can
// be serialized and later restored into a freshly constructed placer of the
// same configuration. The contract is decision fidelity: after RestoreState,
// every subsequent Place call must return exactly the shard the original
// placer would have chosen for the same stream — the snapshot is the state,
// not an approximation of it.
//
// WriteState emits one self-delimiting binary section of exactly StateSize
// bytes; RestoreState consumes exactly one such section. Strategies that
// replay immutable offline data (MetisReplay) do not implement the
// interface — their state is their construction input.
type Snapshotter interface {
	// StateSize returns how many bytes WriteState emits for the current
	// state, computed from column lengths (nothing is encoded).
	StateSize() int64
	// WriteState writes the strategy's complete decision state to w.
	WriteState(w *StateWriter)
	// RestoreState replaces the receiver's state with a section produced by
	// WriteState on an identically configured placer. The receiver must be
	// fresh (no placements); on error the receiver is unusable.
	RestoreState(r *StateReader) error
}

// UvarintLen returns how many bytes the unsigned varint encoding of v takes.
func UvarintLen(v uint64) int64 { return int64(bits.Len64(v|1)+6) / 7 }

// ColumnSize returns the encoded size of a length-prefixed column of n
// elements of elemSize bytes each.
func ColumnSize(n, elemSize int) int64 {
	return UvarintLen(uint64(n)) + int64(n)*int64(elemSize)
}

// stageBytes sizes the StateWriter's staging buffer: large enough that the
// per-flush costs vanish, small enough to stay cache-resident while a column
// is encoded, checksummed and handed on.
const stageBytes = 64 << 10

// StateWriter streams state sections to an io.Writer through one small
// staging buffer, keeping a running CRC-32 (IEEE) and byte count of
// everything written, so a snapshot of any size costs one fixed buffer and
// each column is encoded exactly once. The first write error sticks: later
// calls write nothing and Flush and Finish report it. It is itself an io.Writer, so a
// section writer can be nested inside an envelope's.
type StateWriter struct {
	w   io.Writer
	buf []byte // staged bytes, not yet checksummed or written
	sum uint32
	n   int64 // bytes accepted so far, staged ones included
	err error
}

// NewStateWriter returns a writer streaming to w.
func NewStateWriter(w io.Writer) *StateWriter {
	return &StateWriter{w: w, buf: make([]byte, 0, stageBytes)}
}

// Len reports how many bytes have been written (staged bytes included).
func (w *StateWriter) Len() int64 { return w.n }

// Fail records err as the writer's error unless one is already recorded.
func (w *StateWriter) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// emit checksums p and hands it to the underlying writer.
func (w *StateWriter) emit(p []byte) {
	if w.err != nil || len(p) == 0 {
		return
	}
	w.sum = crc32.Update(w.sum, crc32.IEEETable, p)
	_, w.err = w.w.Write(p)
}

// Flush writes out the staged bytes and returns the writer's error.
func (w *StateWriter) Flush() error {
	w.emit(w.buf)
	w.buf = w.buf[:0]
	return w.err
}

// Finish appends the CRC-32 of everything written so far (4 bytes,
// little-endian, not themselves checksummed), flushes, and returns the
// writer's error.
func (w *StateWriter) Finish() error {
	if err := w.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], w.sum)
	w.n += int64(len(tail))
	_, w.err = w.w.Write(tail[:])
	return w.err
}

// grab returns staging space for as many of count size-byte elements as fit
// (at least one), flushing first when the buffer is full.
func (w *StateWriter) grab(size, count int) ([]byte, int) {
	if cap(w.buf)-len(w.buf) < size {
		w.Flush()
	}
	n := min(count, (cap(w.buf)-len(w.buf))/size)
	lo := len(w.buf)
	w.buf = w.buf[:lo+n*size]
	w.n += int64(n * size)
	return w.buf[lo:], n
}

// Write implements io.Writer: raw bytes, staged when small and passed
// straight through (checksummed, not copied) when they would fill the
// buffer anyway.
func (w *StateWriter) Write(p []byte) (int, error) {
	if len(p) >= cap(w.buf)-len(w.buf) {
		w.Flush()
		if len(p) >= cap(w.buf) {
			w.emit(p)
			w.n += int64(len(p))
			return len(p), w.err
		}
	}
	w.buf = append(w.buf, p...)
	w.n += int64(len(p))
	return len(p), w.err
}

// String writes the raw bytes of s.
func (w *StateWriter) String(s string) {
	for len(s) > 0 {
		dst, n := w.grab(1, len(s))
		copy(dst, s[:n])
		s = s[n:]
	}
}

// Uvarint writes v in unsigned varint encoding.
func (w *StateWriter) Uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	dst, _ := w.grab(n, 1)
	copy(dst, tmp[:n])
}

// littleEndian reports whether the host stores integers little-endian, so
// that a column's memory is its encoding.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf is the memory of vals.
func bytesOf[T uint16 | int32 | uint64](vals []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*int(unsafe.Sizeof(T(0))))
}

// writeElems writes vals as raw little-endian elements: on a little-endian
// host their memory in one Write (staged when small, checksummed and passed
// through when large), elsewhere an element at a time.
func writeElems[T uint16 | int32 | uint64](w *StateWriter, vals []T) {
	if littleEndian {
		w.Write(bytesOf(vals))
		return
	}
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		w.Write(b[:unsafe.Sizeof(v)])
	}
}

// Uint16s writes vals as raw little-endian 2-byte elements. Like the other
// element writers it emits no length prefix, so a column stored in several
// pieces is one Uvarint count followed by one call per piece.
func (w *StateWriter) Uint16s(vals []uint16) { writeElems(w, vals) }

// Int32s writes vals as raw little-endian 4-byte elements.
func (w *StateWriter) Int32s(vals []int32) { writeElems(w, vals) }

// Uint64s writes vals as raw little-endian 8-byte elements.
func (w *StateWriter) Uint64s(vals []uint64) { writeElems(w, vals) }

// StateReader consumes the sections WriteState producers emit. The first
// decoding defect sticks: every later read returns zero values and Err
// reports the defect, so decoders can parse a whole section and check the
// error once.
type StateReader struct {
	buf []byte
	err error
}

// NewStateReader wraps a serialized state buffer.
func NewStateReader(buf []byte) *StateReader { return &StateReader{buf: buf} }

// Err returns the first decoding defect, or nil.
func (r *StateReader) Err() error { return r.err }

// Len reports the unconsumed byte count.
func (r *StateReader) Len() int { return len(r.buf) }

func (r *StateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Uvarint consumes one unsigned varint.
func (r *StateReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("placement: truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Byte consumes one raw byte.
func (r *StateReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("placement: truncated byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bytes consumes n raw bytes.
func (r *StateReader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.fail("placement: %d raw bytes requested, %d remain", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Column consumes one length-prefixed column of elemSize-byte elements and
// returns its raw little-endian bytes, a view into the buffer. The prefix
// is bounded by the bytes that remain, so a corrupt one cannot force an
// allocation: decoders size their arrays from len(column)/elemSize.
func (r *StateReader) Column(elemSize int) []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)/elemSize) {
		r.fail("placement: column of %d entries exceeds %d remaining bytes", n, len(r.buf))
		return nil
	}
	return r.Bytes(int(n) * elemSize)
}

// StateSize implements Snapshotter for the assignment: the
// per-transaction shard column, 2 bytes a decision.
func (a *Assignment) StateSize() int64 { return ColumnSize(len(a.shards), 2) }

// WriteState serializes the assignment: the per-transaction shard column
// (counts are derived on restore).
func (a *Assignment) WriteState(w *StateWriter) {
	w.Uvarint(uint64(len(a.shards)))
	w.Uint16s(a.shards)
}

// RestoreState replaces the assignment's decisions with a section produced
// by WriteState. The receiver must be empty and keep its shard count; the
// per-shard tallies are rebuilt, and any out-of-range shard fails.
func (a *Assignment) RestoreState(r *StateReader) error {
	col := r.Column(2)
	if err := r.Err(); err != nil {
		return err
	}
	if len(a.shards) != 0 {
		return fmt.Errorf("placement: restore into a non-empty assignment (%d placed)", len(a.shards))
	}
	n := len(col) / 2
	shards := a.shards
	if cap(shards) < n {
		shards = make([]uint16, n)
	}
	shards = shards[:n]
	copy(bytesOf(shards), col) // the decoded column, on a little-endian host
	counts := make([]int64, a.k)
	for i, s := range shards {
		if !littleEndian {
			s = binary.LittleEndian.Uint16(col[2*i:])
			shards[i] = s
		}
		if int(s) >= a.k {
			return fmt.Errorf("placement: snapshot places transaction %d in shard %d of %d", i, s, a.k)
		}
		counts[s]++
	}
	a.shards = shards
	a.counts = counts
	return nil
}

// WriteState implements Snapshotter: the hash placement is stateless beyond
// its recorded decisions.
func (p *Random) WriteState(w *StateWriter) { p.a.WriteState(w) }

// StateSize implements Snapshotter.
func (p *Random) StateSize() int64 { return p.a.StateSize() }

// RestoreState implements Snapshotter.
func (p *Random) RestoreState(r *StateReader) error { return p.a.RestoreState(r) }

// WriteState implements Snapshotter: greedy coverage is recomputed per
// placement from the assignment, so the assignment is the whole state.
func (g *Greedy) WriteState(w *StateWriter) { g.a.WriteState(w) }

// StateSize implements Snapshotter.
func (g *Greedy) StateSize() int64 { return g.a.StateSize() }

// RestoreState implements Snapshotter.
func (g *Greedy) RestoreState(r *StateReader) error { return g.a.RestoreState(r) }

// Compile-time interface compliance checks.
var (
	_ Snapshotter = (*Random)(nil)
	_ Snapshotter = (*Greedy)(nil)
)
