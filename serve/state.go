package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"optchain/internal/placement"
)

// State-file envelope: the server's id map wrapped around the engine's own
// snapshot stream. The engine section is self-checksummed; the envelope
// carries its own trailing CRC-32 over everything before it, so truncation
// anywhere in the file fails loudly.
//
//	magic "OPTCSRV1"
//	uvarint envelope version (1)
//	uvarint id count, then per id (sorted by stream index):
//	    uvarint len(id), id bytes, uvarint stream index
//	uvarint engine snapshot length, engine snapshot bytes (see
//	    optchain.Engine.WriteSnapshot; snapshot format version 6)
//	4-byte little-endian CRC-32 (IEEE) of all preceding bytes
//
// Every uvarint, the envelope's and the engine section's, is read through
// placement.StateReader, so one encoded longer than its value needs is a
// defect. The envelope is unchanged since its first version, but the
// engine section inside it is not: a file written before snapshot format 6
// fails to load with ErrBadState naming the engine snapshot's version.
// Remove it to start cold, or place the stream again.
const (
	stateMagic   = "OPTCSRV1"
	stateVersion = 1
)

// stateMaxBytes bounds how much loadState will read from disk, and
// therefore how much saveState will write. (A variable only so that a test
// can reach the bound with a small stream.)
var stateMaxBytes int64 = 1 << 30

// saveState writes the server's state (id map + engine snapshot) to
// cfg.StatePath atomically: a temp file in the same directory, fsync, then
// rename. The caller holds the engine-owner lock, so the id map and the
// engine are at the same unit boundary, and placement waits for the write:
// the envelope and the engine's columns stream to the file through one
// checksumming writer, never gathered in memory. A state larger than
// loadState accepts is refused before anything is written.
//
//optchain:locked s.own held by Snapshot/Close.
func (s *Server) saveState() error {
	start := time.Now()
	size, err := s.writeState()
	if err != nil {
		s.met.snapshotError()
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	s.met.snapshot(size, time.Since(start))
	return nil
}

// writeState is saveState's file handling; it returns the bytes written.
//
//optchain:locked s.own held by saveState's callers.
func (s *Server) writeState() (int64, error) {
	snapBytes, err := s.eng.SnapshotSize()
	if err != nil {
		return 0, fmt.Errorf("engine snapshot: %v", err)
	}
	size := int64(len(stateMagic)) + placement.UvarintLen(stateVersion) + placement.UvarintLen(uint64(len(s.ids))) +
		placement.UvarintLen(uint64(snapBytes)) + snapBytes + 4
	// Ids in stream order without a sort: position -> id, "" marking a
	// position placed without one (an empty id is never registered).
	var order []string
	if len(s.ids) > 0 {
		order = make([]string, s.nextIndex)
	}
	for id, idx := range s.ids {
		if idx >= len(order) {
			return 0, fmt.Errorf("id %q names stream position %d of %d", id, idx, len(order))
		}
		order[idx] = id
		size += placement.UvarintLen(uint64(len(id))) + int64(len(id)) + placement.UvarintLen(uint64(idx))
	}
	if size > stateMaxBytes {
		return 0, fmt.Errorf("the state takes %d bytes, more than the %d a state file may", size, stateMaxBytes)
	}

	f, err := os.CreateTemp(filepath.Dir(s.cfg.StatePath), filepath.Base(s.cfg.StatePath)+".tmp*")
	if err != nil {
		return 0, err
	}
	fail := func(err error) (int64, error) {
		f.Close() // a second Close is harmless
		os.Remove(f.Name())
		return 0, err
	}
	w := placement.NewStateWriter(f)
	w.String(stateMagic)
	w.Uvarint(stateVersion)
	w.Uvarint(uint64(len(s.ids)))
	for idx, id := range order {
		if id != "" {
			w.Uvarint(uint64(len(id)))
			w.String(id)
			w.Uvarint(uint64(idx))
		}
	}
	w.Uvarint(uint64(snapBytes))
	if err := s.eng.WriteSnapshot(w); err != nil {
		return fail(fmt.Errorf("engine snapshot: %v", err))
	}
	if err := w.Finish(); err != nil {
		return fail(err)
	}
	if w.Len() != size {
		// Someone placed on the engine behind the server's back.
		return fail(fmt.Errorf("wrote %d bytes where the state added up to %d", w.Len(), size))
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(f.Name(), s.cfg.StatePath); err != nil {
		return fail(err)
	}
	return size, nil
}

// loadState restores a saveState file into the server's id map and the
// engine. Called from New before any goroutine starts; a missing file is
// not an error (cold start), anything else defective fails with ErrBadState
// so a corrupt file cannot silently cold-start a router mid-stream.
//
//optchain:locked called by New before the server is shared.
func (s *Server) loadState(path string) error {
	if info, err := os.Stat(path); err == nil && info.Size() > stateMaxBytes {
		return fmt.Errorf("%w: %s exceeds %d bytes", ErrBadState, path, stateMaxBytes)
	}
	data, err := os.ReadFile(path) // one buffer, sized from the file
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	return s.decodeState(data, path)
}

// decodeState is loadState past the file system: data is the whole state
// file, path names it in errors.
//
//optchain:locked called by New before the server is shared.
func (s *Server) decodeState(data []byte, path string) error {
	if len(data) < len(stateMagic)+4 || string(data[:len(stateMagic)]) != stateMagic {
		return fmt.Errorf("%w: %s is not a serve state file (bad magic)", ErrBadState, path)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return fmt.Errorf("%w: %s checksum mismatch (corrupt or truncated)", ErrBadState, path)
	}

	r := placement.NewStateReader(body[len(stateMagic):])
	version := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadState, path, err)
	}
	if version != stateVersion {
		return fmt.Errorf("%w: %s version %d, want %d", ErrBadState, path, version, stateVersion)
	}
	// A defect in the id count leaves it 0 and sticks: snapLen reports it.
	count := r.Uvarint()
	if count > uint64(r.Len()/2) { // an id takes at least a length and an index
		return fmt.Errorf("%w: %s declares %d ids in %d bytes", ErrBadState, path, count, r.Len())
	}
	ids := make(map[string]int, count)
	for i := uint64(0); i < count; i++ {
		n := r.Uvarint()
		if err := r.Err(); err != nil {
			return fmt.Errorf("%w: %s id %d: %v", ErrBadState, path, i, err)
		}
		if n == 0 || n > uint64(r.Len()) {
			return fmt.Errorf("%w: %s id %d empty or truncated", ErrBadState, path, i)
		}
		id := string(r.Bytes(int(n)))
		idx := r.Uvarint()
		if err := r.Err(); err != nil {
			return fmt.Errorf("%w: %s id %q index: %v", ErrBadState, path, id, err)
		}
		if _, dup := ids[id]; dup {
			return fmt.Errorf("%w: %s repeats id %q", ErrBadState, path, id)
		}
		ids[id] = int(idx)
	}
	snapLen := r.Uvarint()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadState, path, err)
	}
	if snapLen != uint64(r.Len()) {
		return fmt.Errorf("%w: %s engine snapshot length %d, %d bytes remain", ErrBadState, path, snapLen, r.Len())
	}
	rest := r.Bytes(r.Len())
	if err := s.eng.ReadSnapshot(bytes.NewReader(rest)); err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadState, path, err)
	}
	placed := s.eng.Stats().Placed
	for id, idx := range ids {
		if idx < 0 || idx >= placed {
			return fmt.Errorf("%w: %s id %q names stream position %d of %d", ErrBadState, path, id, idx, placed)
		}
	}
	s.ids = ids
	return nil
}
