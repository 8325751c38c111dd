package experiment_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optchain/experiment"
)

// cacheParams enables the persistent row cache on the quick test params.
// Workers is pinned to 1 so cache appends happen in canonical cell order —
// the setting under which an interrupted-then-resumed cache file must be
// byte-identical to an uninterrupted one.
func cacheParams(dir string) experiment.Params {
	p := quickParams()
	p.Workers = 1
	p.CacheDir = dir
	return p
}

func readCacheFile(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "rows.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// resumeSweep is the grid the resume-identity test interrupts: two fast
// cells, then a cell with a long stream. Cancelling as row two arrives
// always lands while cell three is in flight (its runtime dwarfs the
// consumer's wakeup latency), so the interruption is deterministic — the
// worker cannot race through the whole grid first.
func resumeSweep() experiment.Sweep {
	return experiment.Sweep{
		Name: "resume",
		Cells: []experiment.Cell{
			{Strategy: "OptChain", Shards: 2, Rate: 800},
			{Strategy: "OptChain", Shards: 4, Rate: 800},
			{Strategy: "OmniLedger", Shards: 2, Rate: 800, Txs: 24000},
			{Strategy: "OmniLedger", Shards: 4, Rate: 800},
		},
	}
}

// TestCacheResumeIdentity is the resume property: a streamed grid cancelled
// mid-run and then resumed by a fresh runner over the same cache directory
// produces a cache file byte-identical to an uninterrupted run's, and the
// resumed sweep's rows carry the same cell identities and quality metrics.
func TestCacheResumeIdentity(t *testing.T) {
	// Uninterrupted reference run.
	dirA := t.TempDir()
	ra := experiment.NewRunner(cacheParams(dirA))
	want, err := ra.Collect(context.Background(), resumeSweep())
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel the context as soon as two rows stream out.
	// The consumer observes the cancellation at the next frontier cell, so
	// the stream dies mid-grid with a valid cache prefix on disk.
	dirB := t.TempDir()
	rb := experiment.NewRunner(cacheParams(dirB))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streamed := 0
	var streamErr error
	for _, err := range rb.Stream(ctx, resumeSweep()) {
		if err != nil {
			streamErr = err
			break
		}
		streamed++
		if streamed == 2 {
			cancel()
		}
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("interrupted run: streamed %d rows, err = %v (want context.Canceled)", streamed, streamErr)
	}
	if streamed == len(resumeSweep().Cells) {
		t.Fatal("interrupted run streamed the whole grid; nothing to resume")
	}
	if err := rb.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume with a fresh runner over the interrupted cache.
	rc := experiment.NewRunner(cacheParams(dirB))
	got, err := rc.Collect(context.Background(), resumeSweep())
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}

	a, b := readCacheFile(t, dirA), readCacheFile(t, dirB)
	if !bytes.Equal(a, b) {
		t.Fatalf("interrupted+resumed cache differs from uninterrupted cache:\n--- uninterrupted ---\n%s--- resumed ---\n%s", a, b)
	}
	// The file is a header line, then pure cell data: no sweep identity and
	// no host-noise wall clock on any entry, so that bytes are comparable.
	if !bytes.HasPrefix(a, []byte(`{"schema":"`+experiment.CacheSchema+`"`)) {
		t.Fatalf("cache file does not open with a %s header:\n%s", experiment.CacheSchema, a)
	}
	entries, err := experiment.DecodeRows(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(resumeSweep().Cells) {
		t.Fatalf("cache holds %d entries, want %d", len(entries), len(resumeSweep().Cells))
	}
	for _, e := range entries {
		if e.Sweep != "" || e.WallSeconds != 0 {
			t.Fatalf("cache entry %s carries sweep %q, wall_seconds %v; want neither", e.ID, e.Sweep, e.WallSeconds)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("resumed rows = %d, want %d", len(got), len(want))
	}
	served := 0
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Sweep != w.Sweep || g.Index != w.Index {
			t.Fatalf("row %d identity differs: got %s/%d %q, want %s/%d %q", i, g.Sweep, g.Index, g.ID, w.Sweep, w.Index, w.ID)
		}
		if g.SteadyTPS != w.SteadyTPS || g.CrossFraction != w.CrossFraction || g.Committed != w.Committed {
			t.Fatalf("row %d metrics differ:\nresumed: %+v\nwant:    %+v", i, g, w)
		}
		if g.WallSeconds == 0 {
			served++ // flat data straight from the cache, no host time spent
		}
	}
	if served == 0 {
		t.Fatal("resume executed every cell; nothing was served from the cache")
	}
}

// TestCacheServesSecondRun: a second run over a warm cache serves every
// cell as flat data (zero WallSeconds, identical metrics) and appends
// nothing to the cache file.
func TestCacheServesSecondRun(t *testing.T) {
	dir := t.TempDir()
	cold := experiment.NewRunner(cacheParams(dir))
	want, err := cold.Collect(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	before := readCacheFile(t, dir)

	warm := experiment.NewRunner(cacheParams(dir))
	got, err := warm.Collect(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("warm rows = %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.SteadyTPS != w.SteadyTPS || g.CrossFraction != w.CrossFraction {
			t.Fatalf("row %d differs from cold run:\nwarm: %+v\ncold: %+v", i, g, w)
		}
		if g.WallSeconds != 0 {
			t.Fatalf("row %d (%s) re-executed on a warm cache (wall %v)", i, g.ID, g.WallSeconds)
		}
	}
	if after := readCacheFile(t, dir); !bytes.Equal(before, after) {
		t.Fatalf("warm run mutated the cache file:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

// TestCachePoisoning: a damaged cache must fail the sweep loudly with
// ErrBadCache naming the cell involved — never silently recompute.
func TestCachePoisoning(t *testing.T) {
	// Produce one valid cache file to mutate.
	seedDir := t.TempDir()
	r := experiment.NewRunner(cacheParams(seedDir))
	if _, err := r.Collect(context.Background(), tinySweep()); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	valid := string(readCacheFile(t, seedDir))
	lines := strings.Split(strings.TrimSuffix(valid, "\n"), "\n")
	if len(lines) != 5 { // header + 4 rows
		t.Fatalf("cache file has %d lines, want 5:\n%s", len(lines), valid)
	}
	// The cell ID of the first row — the "after cell" anchor corruption
	// errors must name.
	firstID := lines[1]
	firstID = firstID[strings.Index(firstID, `"id":"`)+len(`"id":"`):]
	firstID = firstID[:strings.Index(firstID, `"`)]
	if firstID == "" {
		t.Fatalf("no cell ID in row line %q", lines[1])
	}

	runOver := func(t *testing.T, content string, p func(experiment.Params) experiment.Params) error {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "rows.jsonl"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		params := cacheParams(dir)
		if p != nil {
			params = p(params)
		}
		run := experiment.NewRunner(params)
		defer run.Close()
		_, err := run.Collect(context.Background(), tinySweep())
		return err
	}

	for name, tc := range map[string]struct {
		content string
		params  func(experiment.Params) experiment.Params
		needle  string
	}{
		"truncated row": {
			content: strings.Join(lines[:2], "\n") + "\n" + lines[2][:len(lines[2])/2] + "\n",
			needle:  firstID, // names the last intact cell
		},
		"corrupt row": {
			content: lines[0] + "\n" + lines[1] + "\n{definitely not json\n",
			needle:  firstID,
		},
		"duplicate row": {
			content: valid + lines[1] + "\n",
			needle:  firstID, // names the duplicated cell
		},
		"row without id": {
			content: lines[0] + "\n{\"kind\":\"sim\"}\n",
			needle:  "no cell ID",
		},
		"bad header": {
			content: "{\"schema\":\"optchain-rowcache/v0\"}\n",
			needle:  "schema",
		},
		"v1 cache": {
			// A v1 file may hold a materialized row under the ID of a
			// streamed cell: refused, never served.
			content: strings.Replace(valid, experiment.CacheSchema, "optchain-rowcache/v1", 1),
			needle:  `"optchain-rowcache/v1"`,
		},
		"not a header": {
			content: "garbage first line\n",
			needle:  "not a cache header",
		},
		"seed mismatch": {
			content: valid,
			params: func(p experiment.Params) experiment.Params {
				p.Seed = 99
				return p
			},
			needle: "seed",
		},
	} {
		t.Run(name, func(t *testing.T) {
			err := runOver(t, tc.content, tc.params)
			if !errors.Is(err, experiment.ErrBadCache) {
				t.Fatalf("err = %v, want ErrBadCache (a poisoned cache must fail, not recompute)", err)
			}
			if !strings.Contains(err.Error(), tc.needle) {
				t.Fatalf("err %q does not name %q", err, tc.needle)
			}
		})
	}
}

// TestCacheIgnoresSweepIdentity: the same cell cached from one sweep is
// served into another — entries are pure cell data, keyed by cell ID only.
func TestCacheIgnoresSweepIdentity(t *testing.T) {
	dir := t.TempDir()
	first := experiment.NewRunner(cacheParams(dir))
	if _, err := first.Collect(context.Background(), tinySweep()); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	renamed := tinySweep()
	renamed.Name = "renamed"
	second := experiment.NewRunner(cacheParams(dir))
	defer second.Close()
	rows, err := second.Collect(context.Background(), renamed)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if row.Sweep != "renamed" || row.Index != i {
			t.Fatalf("row %d sweep identity not restamped: %+v", i, row)
		}
		if row.WallSeconds != 0 {
			t.Fatalf("row %d (%s) not served from cache across sweeps", i, row.ID)
		}
	}
}
