package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optchain"
)

const (
	fuzzShards = 16
	fuzzLines  = 300 // stream length, and every fuzz engine's capacity
	fuzzCut    = 200 // lines placed before the state file is written
)

func fuzzServer(t testing.TB, statePath string) *Server {
	t.Helper()
	eng, err := optchain.New(optchain.WithShards(fuzzShards), optchain.WithStreamCapacity(fuzzLines))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Engine: eng, StatePath: statePath, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fuzzRequests renders one of the benchmark's stream shapes as the requests
// its workload sends: positions (bitcoin-bulk) or ids and parent ids
// (hotspot-rpc, mix-ids).
func fuzzRequests(t testing.TB, spec string, named bool) []Request {
	t.Helper()
	d, err := optchain.MaterializeWorkload(spec, optchain.WorkloadParams{N: fuzzLines, Seed: 1, Shards: fuzzShards})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for tx := range optchain.DatasetStream(d) {
		req := Request{Outputs: tx.Outputs}
		if named {
			req.ID = fmt.Sprintf("tx-%d", len(reqs))
			for _, in := range tx.Inputs {
				req.Parents = append(req.Parents, fmt.Sprintf("tx-%d", in))
			}
		} else {
			req.Inputs = tx.Inputs
		}
		reqs = append(reqs, req)
	}
	return reqs
}

// FuzzLoadState feeds the state-file decoder arbitrary bytes, as given and
// with the envelope's checksum recomputed so that mutations reach the id
// map (mutations inside the engine section stop at its own checksum;
// FuzzReadSnapshot takes them further). A file is either refused with
// ErrBadState or restores a server that works: a genuine state file
// continues exactly as the server that wrote it, ids resolving across the
// restart, and any other accepted state holds only ids of placed positions
// and keeps answering. Nothing panics, and nothing is allocated from a
// count the file merely claims.
func FuzzLoadState(f *testing.F) {
	type continuation struct {
		rest []Request
		want []Response
	}
	ctx := context.Background()
	known := map[string]continuation{}
	for _, shape := range []struct {
		spec  string
		named bool
	}{
		{"bitcoin", false},
		{"hotspot", true},
		{"mix:bitcoin=0.6,hotspot=0.25,adversarial=0.05,adversarial=0.05,adversarial=0.05", true},
	} {
		reqs := fuzzRequests(f, shape.spec, shape.named)
		path := filepath.Join(f.TempDir(), "state.bin")
		s := fuzzServer(f, path)
		var want []Response
		for i, req := range reqs {
			if i == fuzzCut {
				if err := s.Snapshot(ctx); err != nil {
					f.Fatal(err)
				}
			}
			res, err := s.Place(ctx, req)
			if err != nil {
				f.Fatal(err)
			}
			if i >= fuzzCut {
				want = append(want, res)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if err := s.Close(ctx); err != nil {
			f.Fatal(err)
		}
		known[string(data)] = continuation{reqs[fuzzCut:], want}
		f.Add(data)
	}
	// A line of 70,000 outputs that every later one spends: an output count
	// of three uvarint bytes and an out-degree of two in the engine section.
	path := filepath.Join(f.TempDir(), "wide.bin")
	s := fuzzServer(f, path)
	var rest []Request
	var want []Response
	for i := range fuzzLines {
		req := Request{ID: fmt.Sprintf("w-%d", i), Outputs: 2}
		if i == 0 {
			req.Outputs = 70_000
		} else {
			req.Parents = []string{"w-0", fmt.Sprintf("w-%d", i/2)}
		}
		if i == fuzzCut {
			if err := s.Snapshot(ctx); err != nil {
				f.Fatal(err)
			}
		}
		res, err := s.Place(ctx, req)
		if err != nil {
			f.Fatal(err)
		}
		if i >= fuzzCut {
			rest, want = append(rest, req), append(want, res)
		}
	}
	wide, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Close(ctx); err != nil {
		f.Fatal(err)
	}
	known[string(wide)] = continuation{rest, want}
	f.Add(wide)
	f.Add(widenUvarint(wide, len(stateMagic)))
	f.Add([]byte(stateMagic))

	check := func(t *testing.T, data []byte) {
		s := fuzzServer(t, "")
		defer s.Close(ctx)
		s.own.Lock()
		err := s.decodeState(data, "fuzz")
		s.nextIndex = s.eng.Stats().Placed
		placed := s.nextIndex
		for id, idx := range s.ids {
			if err == nil && (id == "" || idx < 0 || idx >= placed) {
				t.Errorf("accepted state maps id %q to position %d of %d", id, idx, placed)
			}
		}
		s.own.Unlock()
		if err != nil {
			if !errors.Is(err, ErrBadState) {
				t.Fatalf("decodeState failed with something other than ErrBadState: %v", err)
			}
			return
		}
		if c, ok := known[string(data)]; ok {
			for i, req := range c.rest {
				if got, err := s.Place(ctx, req); err != nil || got != c.want[i] {
					t.Fatalf("restored server answered line %d with %+v (%v), the uninterrupted one with %+v", fuzzCut+i, got, err, c.want[i])
				}
			}
			return
		}
		for i := 0; i < 4; i++ {
			req := Request{ID: fmt.Sprintf("fuzz-%d", i), Outputs: 1}
			if placed+i > 0 {
				req.Inputs = []int{placed + i - 1}
			}
			if got, err := s.Place(ctx, req); err != nil && !errors.Is(err, ErrBadRequest) || err == nil && got.Index != placed+i {
				t.Fatalf("after an accepted state, line %d: %+v, %v", i, got, err)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check(t, data)
		if len(data) >= 4 {
			resealed := append([]byte(nil), data...)
			body := resealed[:len(resealed)-4]
			binary.LittleEndian.PutUint32(resealed[len(body):], crc32.ChecksumIEEE(body))
			check(t, resealed)
		}
	})
}

// TestSaveStateHonoursLoadLimit: a state larger than loadState accepts is
// refused by saveState before anything is written, so a long-running
// gateway never leaves a state file it cannot restart from.
func TestSaveStateHonoursLoadLimit(t *testing.T) {
	defer func(old int64) { stateMaxBytes = old }(stateMaxBytes)
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	s := fuzzServer(t, path)
	defer s.Close(ctx)
	for _, req := range fuzzRequests(t, "hotspot", true)[:50] {
		if _, err := s.Place(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	stateMaxBytes = info.Size() - 1
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(ctx); !errors.Is(err, ErrBadState) {
		t.Fatalf("oversized state: err=%v, want ErrBadState", err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("a refused snapshot left %d files behind", len(left))
	}
	if s.met.snapErrors != 1 {
		t.Fatalf("snapshot error counter %d, want 1", s.met.snapErrors)
	}

	stateMaxBytes = info.Size()
	if err := s.Snapshot(ctx); err != nil {
		t.Fatalf("a state of exactly the limit: %v", err)
	}
	restored := fuzzServer(t, path)
	defer restored.Close(ctx)
	if placed := restored.eng.Stats().Placed; placed != 50 || len(restored.ids) != 50 {
		t.Fatalf("restored %d placements and %d ids, want 50 and 50", placed, len(restored.ids))
	}
	stateMaxBytes = info.Size() - 1
	eng, err := optchain.New(optchain.WithShards(fuzzShards), optchain.WithStreamCapacity(fuzzLines))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Engine: eng, StatePath: path}); !errors.Is(err, ErrBadState) {
		t.Fatalf("loading an oversized file: err=%v, want ErrBadState", err)
	}
}

// TestLoadStateValidatesIdTable: the id count is checked against the bytes
// that could hold that many ids before the map is sized from it, and an id
// may not be empty.
func TestLoadStateValidatesIdTable(t *testing.T) {
	envelope := func(count uint64, rest ...byte) []byte {
		b := append([]byte(stateMagic), stateVersion)
		b = binary.AppendUvarint(b, count)
		b = append(b, rest...)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	}
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"more ids than two bytes each": {envelope(6, make([]byte, 10)...), "declares 6 ids in 10 bytes"},
		"count far past the file":      {envelope(1<<40, 1, 'a', 0, 0), "declares"},
		"empty id":                     {envelope(1, 0, 0, 0), "empty"},
	} {
		s := fuzzServer(t, "")
		s.own.Lock()
		err := s.decodeState(tc.data, name)
		s.own.Unlock()
		if !errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want ErrBadState mentioning %q", name, err, tc.want)
		}
		s.Close(context.Background())
	}
}

// widenUvarint rewrites the one-byte uvarint at data[at] of a state file as
// the two bytes 0x80|v, 0x00 (the same value, encoded longer than it needs)
// and recomputes the envelope's checksum.
func widenUvarint(data []byte, at int) []byte {
	b := append(append(append([]byte(nil), data[:at]...), data[at]|0x80, 0), data[at+1:len(data)-4]...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestLoadStateRefusesNonMinimalUvarints: the envelope's uvarints are read
// by the rules the engine section's are, so a state file whose version or
// id count is encoded longer than it needs (0x81 0x00 for 1) is refused
// with ErrBadState, though its checksum holds.
func TestLoadStateRefusesNonMinimalUvarints(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "state.bin")
	s := fuzzServer(t, path)
	for _, req := range fuzzRequests(t, "hotspot", true)[:20] {
		if _, err := s.Place(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, at := range map[string]int{"as written": -1, "version": len(stateMagic), "id count": len(stateMagic) + 1} {
		file, want := data, ""
		if at >= 0 {
			file, want = widenUvarint(data, at), "non-minimal varint"
		}
		r := fuzzServer(t, "")
		r.own.Lock()
		err := r.decodeState(file, name)
		r.own.Unlock()
		r.Close(ctx)
		if want == "" && err != nil || want != "" && (!errors.Is(err, ErrBadState) || !strings.Contains(err.Error(), want)) {
			t.Errorf("%s: %v, want %q", name, err, want)
		}
	}
}
