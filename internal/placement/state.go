package placement

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"unsafe"
)

// MaxShards is the largest shard count whose state the snapshot format, the
// T2S slab and the assignment can hold: shard ids, and the length of a
// p'(v) vector (at most one entry per shard), are stored at most 2 bytes
// (16 bits) wide.
const MaxShards = 1<<16 - 1

// ShardWidth returns how many bytes a snapshot of k shards stores each
// slab shard id and span length in: 1 when k <= 255 (ids below k and
// lengths up to k fit a byte), else 2.
func ShardWidth(k int) int {
	if k <= 255 {
		return 1
	}
	return 2
}

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

// CountsSize returns the encoded size of a count column of n values that
// take size bytes as uvarints: the element count, the byte length, the
// values.
func CountsSize(n int, size int64) int64 {
	return UvarintLen(uint64(n)) + UvarintLen(uint64(size)) + size
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

// Stage returns n bytes of staging space, flushing first when fewer are
// free; n may be at most 64 KiB, the staging buffer's size. The caller
// encodes into it and hands the number of bytes it used to Commit, so a
// column is encoded straight from where its values are kept.
func (w *StateWriter) Stage(n int) []byte {
	if cap(w.buf)-len(w.buf) < n {
		w.Flush()
	}
	return w.buf[len(w.buf) : len(w.buf)+n]
}

// Commit adds the first n bytes of the space Stage returned to the stream.
func (w *StateWriter) Commit(n int) {
	w.buf = w.buf[:len(w.buf)+n]
	w.n += int64(n)
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
		dst := w.Stage(min(len(s), stageBytes))
		copy(dst, s)
		w.Commit(len(dst))
		s = s[len(dst):]
	}
}

// Uvarint writes v in unsigned varint encoding.
func (w *StateWriter) Uvarint(v uint64) {
	w.Commit(binary.PutUvarint(w.Stage(binary.MaxVarintLen64), v))
}

// littleEndian reports whether the host stores integers little-endian, so
// that a column's memory is its encoding.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// bytesOf is the memory of vals.
func bytesOf[T uint16 | uint64](vals []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), len(vals)*int(unsafe.Sizeof(T(0))))
}

// writeElems writes vals as raw little-endian elements: on a little-endian
// host their memory in one Write (staged when small, checksummed and passed
// through when large), elsewhere an element at a time.
func writeElems[T uint16 | uint64](w *StateWriter, vals []T) {
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

// Shards writes shard ids or span lengths width bytes each (ShardWidth): 2
// as Uint16s does, 1 as the low byte of each value, which must be below
// 256.
func (w *StateWriter) Shards(vals []uint16, width int) {
	if width != 1 {
		w.Uint16s(vals)
		return
	}
	for len(vals) > 0 {
		dst := w.Stage(min(len(vals), stageBytes))
		narrow(dst, vals)
		w.Commit(len(dst))
		vals = vals[len(dst):]
	}
}

// narrow stores the low byte of each of the first len(dst) values of src
// in dst, eight at a time.
func narrow(dst []byte, src []uint16) {
	src = src[:len(dst)]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s, d := src[i:i+8:i+8], dst[i:i+8:i+8]
		d[0], d[1], d[2], d[3] = byte(s[0]), byte(s[1]), byte(s[2]), byte(s[3])
		d[4], d[5], d[6], d[7] = byte(s[4]), byte(s[5]), byte(s[6]), byte(s[7])
	}
	for ; i < len(src); i++ {
		dst[i] = byte(src[i])
	}
}

// Widen stores each byte of src, a column of 1-byte shard ids or span
// lengths, in the first len(src) elements of dst, eight at a time.
func Widen(dst []uint16, src []byte) {
	dst = dst[:len(src)]
	i := 0
	for ; i+8 <= len(src); i += 8 {
		s, d := src[i:i+8:i+8], dst[i:i+8:i+8]
		d[0], d[1], d[2], d[3] = uint16(s[0]), uint16(s[1]), uint16(s[2]), uint16(s[3])
		d[4], d[5], d[6], d[7] = uint16(s[4]), uint16(s[5]), uint16(s[6]), uint16(s[7])
	}
	for ; i < len(src); i++ {
		dst[i] = uint16(src[i])
	}
}

// PutCount encodes v, a value of a count column (see StateReader.Counts),
// as an unsigned varint at the start of b, which must have room for
// binary.MaxVarintLen32 bytes, and returns its length.
func PutCount(b []byte, v uint32) int {
	i := 0
	for v >= 0x80 {
		b[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	b[i] = byte(v)
	return i + 1
}

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

// Uvarint consumes one unsigned varint. An encoding longer than its value
// needs is a defect, so that an accepted section is the one its state
// writes.
func (r *StateReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	switch {
	case n == 0:
		r.fail("placement: truncated varint")
		return 0
	case n < 0:
		r.fail("placement: varint overflows 64 bits")
		return 0
	case n > 1 && r.buf[n-1] == 0:
		r.fail("placement: non-minimal varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
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

// Counts is a count column as the reader found it, undecoded: N unsigned
// varints, each at most math.MaxInt32, back to back in Data.
// DecodeCounts decodes them a block at a time.
type Counts struct {
	N    int
	Data []byte
}

// Counts consumes one count column: a uvarint element count, a uvarint
// byte length, then the values. It returns the values undecoded, a view
// into the buffer; the byte length is bounded by the bytes that remain and
// the element count by the byte length (a value takes at least a byte), so
// a corrupt prefix cannot force an allocation.
func (r *StateReader) Counts() Counts {
	n, size := r.Uvarint(), r.Uvarint()
	if r.err != nil {
		return Counts{}
	}
	if size > uint64(len(r.buf)) {
		r.fail("placement: count column of %d bytes exceeds %d remaining bytes", size, len(r.buf))
		return Counts{}
	}
	if n > size {
		r.fail("placement: count column of %d values in %d bytes", n, size)
		return Counts{}
	}
	return Counts{N: int(n), Data: r.Bytes(int(size))}
}

// DecodeCounts decodes values of a count column from b[*at] on into dst,
// advancing *at past each, and returns how many it decoded: len(dst), or
// fewer when it stops at a value that is no count, *at then on that value.
// Eight values of one byte each are decoded at once.
func DecodeCounts(dst []uint32, b []byte, at *int) int {
	i, p := 0, *at
	for ; i+8 <= len(dst) && p+8 <= len(b); i, p = i+8, p+8 {
		w := binary.LittleEndian.Uint64(b[p:])
		if w&0x8080808080808080 != 0 {
			break
		}
		d := dst[i : i+8 : i+8]
		d[0], d[1], d[2], d[3] = uint32(w&0x7f), uint32(w>>8&0x7f), uint32(w>>16&0x7f), uint32(w>>24&0x7f)
		d[4], d[5], d[6], d[7] = uint32(w>>32&0x7f), uint32(w>>40&0x7f), uint32(w>>48&0x7f), uint32(w>>56)
	}
	for ; i < len(dst); i++ {
		v, next, ok := nextCount(b, p)
		if !ok {
			break
		}
		dst[i], p = v, next
	}
	*at = p
	return i
}

// nextCount decodes the value of a count column that starts at b[at]: it
// returns the value and the offset past it, or ok false when no value up
// to math.MaxInt32, minimally encoded, starts there (CountDefect says why).
func nextCount(b []byte, at int) (v uint32, next int, ok bool) {
	if at < len(b) && b[at] < 0x80 {
		return uint32(b[at]), at + 1, true
	}
	u, n, why := countAt(b, at)
	if why != "" {
		return 0, at, false
	}
	return uint32(u), at + n, true
}

// CountDefect names why no count starts at b[at].
func CountDefect(b []byte, at int) string {
	_, _, why := countAt(b, at)
	return why
}

// countAt decodes the uvarint at b[at] and checks it is a count: why is
// empty for one, else names the rule it breaks.
func countAt(b []byte, at int) (v uint64, n int, why string) {
	v, n = binary.Uvarint(b[min(at, len(b)):])
	switch {
	case n == 0:
		why = "truncated uvarint"
	case n < 0:
		why = "uvarint overflows 64 bits"
	case n > 1 && b[at+n-1] == 0:
		why = "non-minimal uvarint"
	case v > math.MaxInt32:
		why = fmt.Sprintf("%d exceeds %d", v, math.MaxInt32)
	}
	return v, n, why
}

// StateSize implements Snapshotter for the assignment: the decision
// count and the packed words, 8 bytes each.
func (a *Assignment) StateSize() int64 {
	return UvarintLen(uint64(a.n)) + 8*int64(len(a.words))
}

// WriteState serializes the assignment as memory holds it: the decision
// count, then the packed words, little-endian, the unused bits of the last
// one zero (counts are derived on restore).
func (a *Assignment) WriteState(w *StateWriter) {
	w.Uvarint(uint64(a.n))
	w.Uint64s(a.words)
}

// RestoreState replaces the assignment's decisions with a section produced
// by WriteState. The receiver must be empty and keep its shard count. One
// pass over the words copies them (a big-endian host swaps each), refuses
// a decision of k or more before it is tallied and padding bits that are
// not zero, and rebuilds the per-shard tallies.
func (a *Assignment) RestoreState(r *StateReader) error {
	n := r.Uvarint()
	if err := r.Err(); err != nil {
		return err
	}
	if a.n != 0 {
		return fmt.Errorf("placement: restore into a non-empty assignment (%d placed)", a.n)
	}
	if n > uint64(r.Len()/8)<<a.shift {
		return fmt.Errorf("placement: %d decisions exceed the %d remaining bytes", n, r.Len())
	}
	nw := int(n+uint64(a.low)) >> a.shift
	col := r.Bytes(8 * nw)
	words := a.words
	if cap(words) < nw {
		words = make([]uint64, nw)
	}
	words = words[:nw]
	counts := make([]int64, a.k)
	per, size, mask := 1<<a.shift, uint(1)<<a.lw, a.mask
	for i := range words {
		x := binary.LittleEndian.Uint64(col[8*i:])
		words[i] = x
		for j := range min(per, int(n)-i<<a.shift) {
			s := x & mask
			if s >= uint64(len(counts)) {
				return fmt.Errorf("placement: snapshot places transaction %d in shard %d of %d", i<<a.shift+j, s, a.k)
			}
			counts[s]++
			x >>= size
		}
		if x != 0 { // what is left of a word past its last decision
			return fmt.Errorf("placement: the assignment's last word sets bits past transaction %d", int(n)-1)
		}
	}
	a.words, a.n, a.counts = words, int(n), counts
	return nil
}

// Shard returns element i of a column of width-byte shard ids or span
// lengths (ShardWidth).
func Shard(col []byte, i, width int) uint16 {
	if width == 1 {
		return uint16(col[i])
	}
	return binary.LittleEndian.Uint16(col[2*i:])
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
