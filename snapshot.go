package optchain

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"optchain/internal/placement"
)

// Snapshot errors. Match with errors.Is.
var (
	// ErrBadSnapshot reports a snapshot that is corrupt, truncated, produced
	// by a different format version, or incompatible with the restoring
	// engine's configuration.
	ErrBadSnapshot = errors.New("optchain: invalid or incompatible snapshot")
	// ErrSnapshotUnsupported reports a strategy whose state cannot be
	// exported — it does not implement the snapshot contract (Metis replay,
	// custom registrations without state support).
	ErrSnapshotUnsupported = errors.New("optchain: strategy does not support snapshots")
)

// snapMagic identifies an Engine snapshot stream; snapVersion versions the
// layout that follows it. The whole stream (magic through payload) is
// covered by a trailing CRC-32 so truncation and corruption fail loudly.
//
// Format version 4, every integer a minimal uvarint unless a width is
// given. A fixed-width column is a uvarint count followed by that many
// little-endian elements; a count column is a uvarint count, a uvarint
// byte length, then that many uvarints, each at most math.MaxInt32, so a
// reader can slice it off without decoding it. Shard ids and span lengths
// take 1 byte when the shard count is at most 255, else 2:
//
//	magic "OPTCHSNP", version (4)
//	fingerprint: len(strategy), strategy (lower case), shards, alpha bits,
//	    L2S weight bits, capacity hint
//	placed, cross total, cross count
//	strategy state, the placer's placement.Snapshotter section: for
//	    Greedy and OmniLedger the shard of each transaction, 1 or 2 B each;
//	    for T2S and OptChain the index's section (see
//	    internal/core/state.go): output counts and out-degrees as count
//	    columns, one per transaction, shards and span lengths 1 or 2 B per
//	    transaction, slab shard ids 1 or 2 B and values 8 B per entry of the
//	    vectors still held (a retired transaction has span length 0 and no
//	    entries)
//	CRC-32 (IEEE) of all preceding bytes, 4 B little-endian
//
// These are the state's columns, each handed to the writer a block at a
// time through one small staging buffer (on a little-endian host a block
// of 2- or 8-byte elements is the column's own memory, and a large one is
// passed through whole), so a snapshot costs no memory proportional to the
// state. The section's size comes from column lengths and the running byte
// totals the T2S index keeps of its count columns, so SnapshotSize is
// exact without a pass over the state.
// For T2S and OptChain every byte after the version is what version 3
// wrote; version 3 carried an output-count column in the header for every
// strategy (zeros for Greedy and OmniLedger). Versions 1 to 3 are not
// read: such a stream fails with ErrBadSnapshot naming its version, and
// its owner starts cold or places the stream again.
const (
	snapMagic   = "OPTCHSNP"
	snapVersion = 4
)

// snapMaxBytes bounds how much ReadSnapshot will buffer — a corrupt length
// field must not translate into an unbounded allocation — and therefore how
// much WriteSnapshot will write: 1 GiB of snapshot is some 130 million
// placed transactions at the 7-8 bytes each the benchmark's streams take
// at 16 shards. (A variable only so that a test can reach the bound with a
// small stream.)
var snapMaxBytes int64 = 1 << 30

// snapshotPlanLocked prepares a snapshot of the engine as it is now: the
// strategy's state exporter, the encoded bytes that precede the columns,
// and the exact length of the whole stream, from column lengths alone.
//
//optchain:locked e.mu held by WriteSnapshot/SnapshotSize.
func (e *Engine) snapshotPlanLocked() (snap placement.Snapshotter, head []byte, size int64, err error) {
	if e.running {
		return nil, nil, 0, ErrRunning
	}
	if err := e.ensurePlacerLocked(); err != nil {
		return nil, nil, 0, err
	}
	snap, ok := e.placer.(placement.Snapshotter)
	if !ok {
		return nil, nil, 0, fmt.Errorf("%w: %q", ErrSnapshotUnsupported, e.strategy)
	}
	name := strings.ToLower(e.strategy)
	head = make([]byte, 0, 128+len(name))
	head = append(head, snapMagic...)
	head = binary.AppendUvarint(head, snapVersion)
	head = binary.AppendUvarint(head, uint64(len(name)))
	head = append(head, name...)
	head = binary.AppendUvarint(head, uint64(e.shards))
	head = binary.AppendUvarint(head, math.Float64bits(e.alpha))
	head = binary.AppendUvarint(head, math.Float64bits(e.l2sWeight))
	head = binary.AppendUvarint(head, uint64(e.placerN))
	head = binary.AppendUvarint(head, uint64(e.placed))
	head = binary.AppendUvarint(head, uint64(e.cross.Total))
	head = binary.AppendUvarint(head, uint64(e.cross.Cross))
	size = int64(len(head)) + snap.StateSize() + 4
	if size > snapMaxBytes {
		return nil, nil, 0, fmt.Errorf("%w: the state takes %d bytes, more than the %d a snapshot may", ErrBadSnapshot, size, snapMaxBytes)
	}
	return snap, head, size, nil
}

// SnapshotSize returns the exact length of the stream WriteSnapshot would
// write now, computed from the lengths of the state's columns, and fails
// exactly when WriteSnapshot would fail before writing.
func (e *Engine) SnapshotSize() (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, _, size, err := e.snapshotPlanLocked()
	return size, err
}

// WriteSnapshot serializes the engine's complete streaming-placement state
// — the strategy's decision state (for OptChain/T2S the slab-backed p'(v)
// index with the output counts it keeps, and the shard assignment) and the
// cross-shard counters — as one versioned, checksummed binary stream.
// A restored engine (see ReadSnapshot) makes bit-identical decisions on the
// rest of the stream, so a placement router can restart without replaying
// history.
//
// The engine may have in-flight Place/PlaceBatch callers — the snapshot is
// taken under the engine lock at a batch boundary — but must not be inside
// Run (ErrRunning). Strategies without state export (Metis replay, custom
// registrations not implementing the snapshot contract) fail with
// ErrSnapshotUnsupported. A state whose stream would be longer than
// ReadSnapshot accepts fails with ErrBadSnapshot before a byte is written
// (SnapshotSize reports the length in advance).
func (e *Engine) WriteSnapshot(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap, head, size, err := e.snapshotPlanLocked()
	if err != nil {
		return err
	}
	sw := placement.NewStateWriter(w)
	sw.Write(head)
	snap.WriteState(sw)
	if err := sw.Finish(); err != nil {
		return fmt.Errorf("%w: write: %v", ErrBadSnapshot, err)
	}
	if sw.Len() != size {
		return fmt.Errorf("%w: wrote %d bytes where the columns add up to %d", ErrBadSnapshot, sw.Len(), size)
	}
	return nil
}

// ReadSnapshot restores the state WriteSnapshot captured into this engine,
// which must be freshly constructed — same strategy, shard count, alpha,
// and L2S weight as the snapshot's producer, with no transactions placed
// yet. After a successful restore the engine continues the stream exactly
// where the snapshot left off: Stats reflects the restored counters and
// subsequent decisions are bit-identical to the uninterrupted engine's.
//
// Any defect — truncation, checksum mismatch, another format version (a
// stream of versions 1 to 3 included), a configuration fingerprint that
// does not match this engine — fails with ErrBadSnapshot naming the disagreement;
// the engine is left unused only on fingerprint errors detected before
// state adoption, and must be discarded after a mid-restore failure.
//
// A *bytes.Reader or *bytes.Buffer is read where its bytes lie, without a
// copy; any other reader is read whole, up to the size limit. Nothing of
// the bytes is kept once ReadSnapshot returns.
func (e *Engine) ReadSnapshot(r io.Reader) error {
	switch r.(type) {
	case *bytes.Reader, *bytes.Buffer:
		src := r.(interface {
			io.WriterTo
			Len() int
		})
		if int64(src.Len()) > snapMaxBytes {
			return fmt.Errorf("%w: exceeds %d bytes", ErrBadSnapshot, snapMaxBytes)
		}
		sink := inPlace{e: e, want: src.Len()}
		if sink.want == 0 {
			return e.readSnapshot(nil)
		}
		if _, err := src.WriteTo(&sink); err == nil {
			return sink.err
		}
		// The sink refused bytes that came in pieces: they are unread, and
		// copied below.
	}
	data, err := io.ReadAll(io.LimitReader(r, snapMaxBytes+1))
	if err != nil {
		return fmt.Errorf("%w: read: %v", ErrBadSnapshot, err)
	}
	if int64(len(data)) > snapMaxBytes {
		return fmt.Errorf("%w: exceeds %d bytes", ErrBadSnapshot, snapMaxBytes)
	}
	return e.readSnapshot(data)
}

// inPlace restores a snapshot inside the one Write a *bytes.Reader's or
// *bytes.Buffer's WriteTo hands all its unread bytes to. Bytes that come in
// pieces are refused unread, and ReadSnapshot copies them instead.
type inPlace struct {
	e    *Engine
	want int
	err  error // the restore's
}

func (s *inPlace) Write(p []byte) (int, error) {
	if len(p) != s.want {
		return 0, io.ErrShortWrite
	}
	s.err = s.e.readSnapshot(p)
	return len(p), nil
}

// readSnapshot is ReadSnapshot on the whole stream, which it only reads.
func (e *Engine) readSnapshot(data []byte) error {
	if len(data) < len(snapMagic)+4 || string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("%w: not an engine snapshot (bad magic)", ErrBadSnapshot)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return fmt.Errorf("%w: checksum mismatch (corrupt or truncated)", ErrBadSnapshot)
	}

	sr := placement.NewStateReader(body[len(snapMagic):])
	if v := sr.Uvarint(); sr.Err() == nil && v != snapVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadSnapshot, v, snapVersion)
	}
	name, err := readStateString(sr, sr.Uvarint())
	if err != nil {
		return err
	}
	shards := sr.Uvarint()
	alphaBits := sr.Uvarint()
	weightBits := sr.Uvarint()
	capN := sr.Uvarint()
	placed := sr.Uvarint()
	crossTotal := sr.Uvarint()
	crossCross := sr.Uvarint()
	if err := sr.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return ErrRunning
	}
	if e.placer != nil || e.placed != 0 {
		return fmt.Errorf("%w: restore requires a fresh engine (this one has %d placements)", ErrBadSnapshot, e.placed)
	}
	switch {
	case name != strings.ToLower(e.strategy):
		return fmt.Errorf("%w: snapshot strategy %q, engine %q", ErrBadSnapshot, name, e.strategy)
	case shards != uint64(e.shards):
		return fmt.Errorf("%w: snapshot has %d shards, engine %d", ErrBadSnapshot, shards, e.shards)
	case alphaBits != math.Float64bits(e.alpha):
		return fmt.Errorf("%w: snapshot alpha %v, engine %v", ErrBadSnapshot, math.Float64frombits(alphaBits), e.alpha)
	case weightBits != math.Float64bits(e.l2sWeight):
		return fmt.Errorf("%w: snapshot L2S weight %v, engine %v", ErrBadSnapshot, math.Float64frombits(weightBits), e.l2sWeight)
	case crossCross > crossTotal:
		return fmt.Errorf("%w: cross count %d exceeds total %d", ErrBadSnapshot, crossCross, crossTotal)
	case placed > uint64(sr.Len()):
		// Every strategy's section takes at least a byte per transaction.
		return fmt.Errorf("%w: %d placed transactions in %d bytes of strategy state", ErrBadSnapshot, placed, sr.Len())
	}
	// The capacity hint sizes per-shard budgets (T2S/Greedy); rebuild the
	// placer with the producer's value so the bounds agree. It also sizes
	// the per-transaction columns, so nothing larger is taken from the
	// stream than this engine's own capacity or the transactions the stream
	// demonstrably holds.
	if capN > max(uint64(e.streamCap), placed) {
		return fmt.Errorf("%w: snapshot capacity hint %d exceeds this engine's stream capacity %d and the %d placed transactions",
			ErrBadSnapshot, capN, e.streamCap, placed)
	}
	e.streamCap = int(capN)
	if err := e.ensurePlacerLocked(); err != nil {
		return err
	}
	snap, ok := e.placer.(placement.Snapshotter)
	if !ok {
		return fmt.Errorf("%w: %q", ErrSnapshotUnsupported, e.strategy)
	}
	if err := snap.RestoreState(sr); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if sr.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after strategy state", ErrBadSnapshot, sr.Len())
	}
	if got := e.placer.Assignment().Len(); uint64(got) != placed {
		return fmt.Errorf("%w: strategy state has %d placements, header says %d", ErrBadSnapshot, got, placed)
	}
	e.placed = int(placed)
	e.cross = placement.CrossCounter{Total: int64(crossTotal), Cross: int64(crossCross)}
	e.refreshStreamSnapshotLocked()
	return nil
}

// readStateString consumes n raw bytes from the reader as a string.
func readStateString(sr *placement.StateReader, n uint64) (string, error) {
	if n > uint64(sr.Len()) {
		return "", fmt.Errorf("%w: truncated strategy name", ErrBadSnapshot)
	}
	b := sr.Bytes(int(n))
	if err := sr.Err(); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return string(b), nil
}
