package serve_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"optchain"
	"optchain/serve"
)

// mixStream materializes the standard mixed workload as absolute-position
// StreamTx values.
func mixStream(t *testing.T, n int) []optchain.StreamTx {
	t.Helper()
	d, err := optchain.MaterializeWorkload(
		"mix:bitcoin=0.6,hotspot=0.25,adversarial=0.15",
		optchain.WorkloadParams{N: n, Seed: 7, Shards: testShards})
	if err != nil {
		t.Fatalf("materialize workload: %v", err)
	}
	var txs []optchain.StreamTx
	for tx := range optchain.DatasetStream(d) {
		ins := make([]int, len(tx.Inputs))
		copy(ins, tx.Inputs)
		txs = append(txs, optchain.StreamTx{Inputs: ins, Outputs: tx.Outputs})
	}
	if len(txs) != n {
		t.Fatalf("materialized %d txs, want %d", len(txs), n)
	}
	return txs
}

// asLines renders txs[from:to] as /v1/place JSON lines that reference every
// input through its parent id ("t<position>"), so the requests exercise the
// id map rather than absolute positions.
func asLines(t *testing.T, txs []optchain.StreamTx, from, to int) []string {
	t.Helper()
	lines := make([]string, 0, to-from)
	for i := from; i < to; i++ {
		req := serve.Request{ID: "t" + itoa(i), Outputs: txs[i].Outputs}
		for _, in := range txs[i].Inputs {
			req.Parents = append(req.Parents, "t"+itoa(in))
		}
		lines = append(lines, reqLine(t, req))
	}
	return lines
}

func itoa(i int) string { return strconv.Itoa(i) }

// TestStateRoundTripOverHTTP is the serving-layer restore-fidelity proof: a
// reference engine places the whole stream directly; a server places the
// first half over HTTP (parent-id references only) and shuts down, writing
// its final snapshot; a fresh server restores the file and places the
// second half over HTTP — whose parents name first-half ids, proving the id
// map survives the restart. Every decision must equal the uninterrupted
// reference run's.
func TestStateRoundTripOverHTTP(t *testing.T) {
	const n = 1200
	half := n / 2
	txs := mixStream(t, n)
	statePath := filepath.Join(t.TempDir(), "state.bin")

	ref := newEngine(t, n)
	want, err := ref.PlaceBatch(txs, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	engA := newEngine(t, n)
	srvA, err := serve.New(serve.Config{Engine: engA, StatePath: statePath, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("serve.New A: %v", err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	resp, out := postLines(t, tsA, asLines(t, txs, 0, half))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("A place: status %d", resp.StatusCode)
	}
	if len(out) != half {
		t.Fatalf("A answered %d lines, want %d", len(out), half)
	}
	for i, r := range out {
		if r.Error != "" {
			t.Fatalf("A line %d: %+v", i, r)
		}
		if r.Index != i || r.Shard != want[i] {
			t.Fatalf("A line %d placed (index %d, shard %d), reference says (index %d, shard %d)",
				i, r.Index, r.Shard, i, want[i])
		}
	}
	tsA.Close()
	closeServer(t, srvA) // final snapshot
	if _, err := os.Stat(statePath); err != nil {
		t.Fatalf("Close wrote no state file: %v", err)
	}

	engB := newEngine(t, n)
	srvB, err := serve.New(serve.Config{Engine: engB, StatePath: statePath, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("serve.New B (restore): %v", err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	if placed := engB.Stats().Placed; placed != half {
		t.Fatalf("restored engine has %d placements, want %d", placed, half)
	}
	resp, out = postLines(t, tsB, asLines(t, txs, half, n))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("B place: status %d", resp.StatusCode)
	}
	if len(out) != n-half {
		t.Fatalf("B answered %d lines, want %d", len(out), n-half)
	}
	for i, r := range out {
		pos := half + i
		if r.Error != "" {
			t.Fatalf("B line %d (stream %d): %+v — restored server must resolve first-half parent ids", i, pos, r)
		}
		if r.Index != pos || r.Shard != want[pos] {
			t.Fatalf("restored server diverges at stream %d: placed (index %d, shard %d), uninterrupted run chose shard %d",
				pos, r.Index, r.Shard, want[pos])
		}
	}
	closeServer(t, srvB)

	refStats, bStats := ref.Stats(), engB.Stats()
	if refStats.Placed != bStats.Placed || refStats.Cross != bStats.Cross {
		t.Fatalf("final stats diverge: reference %+v, restored %+v", refStats, bStats)
	}
}

// TestSnapshotEndpointAndPeriodic: POST /v1/snapshot writes a loadable
// file immediately; the periodic snapshotter refreshes it on its own.
func TestSnapshotEndpointAndPeriodic(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.bin")
	s, ts := newServer(t, serve.Config{
		Engine:        newEngine(t, 4096),
		StatePath:     statePath,
		SnapshotEvery: 20 * time.Millisecond,
	})
	if _, out := postLines(t, ts, asLines(t, mixStream(t, 50), 0, 50)); len(out) != 50 {
		t.Fatalf("place: %d lines", len(out))
	}
	resp, err := http.Post(ts.URL+"/v1/snapshot", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST /v1/snapshot: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/snapshot: status %d", resp.StatusCode)
	}
	info, err := os.Stat(statePath)
	if err != nil {
		t.Fatalf("on-demand snapshot missing: %v", err)
	}
	if v, ok := scrapeMetric(t, ts, "optchain_serve_last_snapshot_bytes"); !ok || v != float64(info.Size()) {
		t.Errorf("optchain_serve_last_snapshot_bytes = %g, the file has %d", v, info.Size())
	}
	if v, ok := scrapeMetric(t, ts, "optchain_serve_last_snapshot_seconds"); !ok || v <= 0 {
		t.Errorf("optchain_serve_last_snapshot_seconds = %g, want the time the snapshot took", v)
	}

	// The periodic snapshotter must write on its own cadence too.
	if err := os.Remove(statePath); err != nil {
		t.Fatalf("remove: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(statePath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic snapshotter never rewrote the state file")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the file must actually restore.
	closeServer(t, s)
	restored, err := serve.New(serve.Config{Engine: newEngine(t, 4096), StatePath: statePath})
	if err != nil {
		t.Fatalf("restore from periodic snapshot: %v", err)
	}
	if placed := restored.Engine().Stats().Placed; placed != 50 {
		t.Fatalf("restored %d placements, want 50", placed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	restored.Close(ctx)
}

// TestStateFileDefects: corrupt or incompatible state files must refuse to
// start the server rather than silently cold-starting mid-stream.
func TestStateFileDefects(t *testing.T) {
	dir := t.TempDir()
	goodPath := filepath.Join(dir, "good.bin")
	s, ts := newServer(t, serve.Config{Engine: newEngine(t, 4096), StatePath: goodPath})
	if _, out := postLines(t, ts, asLines(t, mixStream(t, 20), 0, 20)); len(out) != 20 {
		t.Fatalf("place: %d lines", len(out))
	}
	closeServer(t, s)
	good, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatalf("read state: %v", err)
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0x20
	cases := map[string][]byte{
		"garbage":   []byte("definitely not a state file"),
		"truncated": good[:len(good)-8],
		"flipped":   flipped,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(dir, name+".bin")
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatalf("write: %v", err)
			}
			if _, err := serve.New(serve.Config{Engine: newEngine(t, 4096), StatePath: p}); !errors.Is(err, serve.ErrBadState) {
				t.Fatalf("defective state (%s): err=%v, want ErrBadState", name, err)
			}
		})
	}

	// A fingerprint mismatch (different shard count) is also ErrBadState.
	t.Run("mismatched engine", func(t *testing.T) {
		e, err := optchain.New(
			optchain.WithShards(testShards/2),
			optchain.WithStrategy("OptChain"),
			optchain.WithStreamCapacity(4096),
			optchain.WithSeed(1),
		)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := serve.New(serve.Config{Engine: e, StatePath: goodPath}); !errors.Is(err, serve.ErrBadState) {
			t.Fatalf("mismatched engine: err=%v, want ErrBadState", err)
		}
	})

	// A missing file is a clean cold start, not an error.
	t.Run("missing file", func(t *testing.T) {
		s, err := serve.New(serve.Config{Engine: newEngine(t, 4096), StatePath: filepath.Join(dir, "absent.bin")})
		if err != nil {
			t.Fatalf("cold start: %v", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
}
