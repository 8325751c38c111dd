package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
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
//	    optchain.Engine.WriteSnapshot)
//	4-byte little-endian CRC-32 (IEEE) of all preceding bytes
const (
	stateMagic   = "OPTCSRV1"
	stateVersion = 1
)

// stateMaxBytes bounds how much loadState will read from disk.
const stateMaxBytes = 1 << 30

// saveState writes the server's state (id map + engine snapshot) to
// cfg.StatePath atomically: a temp file in the same directory, fsync, then
// rename. The caller holds the engine-owner lock, so the id map and the
// engine are at the same unit boundary.
//
//optchain:locked s.own held by Snapshot/Close.
func (s *Server) saveState() error {
	var buf bytes.Buffer
	buf.WriteString(stateMagic)
	var scratch []byte
	scratch = binary.AppendUvarint(scratch[:0], stateVersion)
	buf.Write(scratch)

	type idEntry struct {
		id  string
		idx int
	}
	entries := make([]idEntry, 0, len(s.ids))
	for id, idx := range s.ids {
		entries = append(entries, idEntry{id, idx})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].idx < entries[j].idx })
	scratch = binary.AppendUvarint(scratch[:0], uint64(len(entries)))
	buf.Write(scratch)
	for _, e := range entries {
		scratch = binary.AppendUvarint(scratch[:0], uint64(len(e.id)))
		buf.Write(scratch)
		buf.WriteString(e.id)
		scratch = binary.AppendUvarint(scratch[:0], uint64(e.idx))
		buf.Write(scratch)
	}

	var engineSnap bytes.Buffer
	if err := s.eng.WriteSnapshot(&engineSnap); err != nil {
		s.met.snapshotError()
		return fmt.Errorf("%w: engine snapshot: %v", ErrBadState, err)
	}
	scratch = binary.AppendUvarint(scratch[:0], uint64(engineSnap.Len()))
	buf.Write(scratch)
	buf.Write(engineSnap.Bytes())
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
	buf.Write(crc[:])

	if err := writeFileAtomic(s.cfg.StatePath, buf.Bytes()); err != nil {
		s.met.snapshotError()
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	s.met.snapshot()
	return nil
}

// writeFileAtomic writes data to path via a same-directory temp file and
// rename, so readers never observe a partial state file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// loadState restores a saveState file into the server's id map and the
// engine. Called from New before any goroutine starts; a missing file is
// not an error (cold start), anything else defective fails with ErrBadState
// so a corrupt file cannot silently cold-start a router mid-stream.
//
//optchain:locked called by New before the server is shared.
func (s *Server) loadState(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadState, err)
	}
	if len(data) > stateMaxBytes {
		return fmt.Errorf("%w: %s exceeds %d bytes", ErrBadState, path, stateMaxBytes)
	}
	if len(data) < len(stateMagic)+4 || string(data[:len(stateMagic)]) != stateMagic {
		return fmt.Errorf("%w: %s is not a serve state file (bad magic)", ErrBadState, path)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return fmt.Errorf("%w: %s checksum mismatch (corrupt or truncated)", ErrBadState, path)
	}

	rest := body[len(stateMagic):]
	version, rest, err := takeUvarint(rest)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadState, path, err)
	}
	if version != stateVersion {
		return fmt.Errorf("%w: %s version %d, want %d", ErrBadState, path, version, stateVersion)
	}
	count, rest, err := takeUvarint(rest)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadState, path, err)
	}
	if count > uint64(len(rest)) {
		return fmt.Errorf("%w: %s declares %d ids in %d bytes", ErrBadState, path, count, len(rest))
	}
	ids := make(map[string]int, count)
	for i := uint64(0); i < count; i++ {
		var n uint64
		n, rest, err = takeUvarint(rest)
		if err != nil {
			return fmt.Errorf("%w: %s id %d: %v", ErrBadState, path, i, err)
		}
		if n > uint64(len(rest)) {
			return fmt.Errorf("%w: %s id %d truncated", ErrBadState, path, i)
		}
		id := string(rest[:n])
		rest = rest[n:]
		var idx uint64
		idx, rest, err = takeUvarint(rest)
		if err != nil {
			return fmt.Errorf("%w: %s id %q index: %v", ErrBadState, path, id, err)
		}
		if _, dup := ids[id]; dup {
			return fmt.Errorf("%w: %s repeats id %q", ErrBadState, path, id)
		}
		ids[id] = int(idx)
	}
	snapLen, rest, err := takeUvarint(rest)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBadState, path, err)
	}
	if snapLen != uint64(len(rest)) {
		return fmt.Errorf("%w: %s engine snapshot length %d, %d bytes remain", ErrBadState, path, snapLen, len(rest))
	}
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

// takeUvarint consumes one uvarint from b.
func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated varint")
	}
	return v, b[n:], nil
}
