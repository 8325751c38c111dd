package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// CacheSchema versions the on-disk row-cache layout (see Params.CacheDir).
// A cache file is one JSONL stream: a header line carrying this schema tag
// and the parameters the rows were produced under, then one completed Row
// per line in completion order — a row file DecodeRows reads like any
// other. Loading a file with any other schema tag fails with ErrBadCache.
//
// v2: a sim cell's ID names the stream it ran, and every non-Metis sim
// cell streams its workload. A v1 file may hold a materialized burst or
// adversarial row under the ID a streamed one now has, so it is refused.
//
// v3: a materialized stream (a Metis sim cell's, a placement cell's) is
// generated for the cell's shard count when its workload is shard-aware
// (adversarial, or a mix with an adversarial component). A v1 or v2 file
// may hold such a row computed on the 16-shard stream, so it is refused.
//
// v4: a Metis sim cell streams its workload, as every other sim cell does,
// and takes only its partition from the materialized stream. Under a
// gap-shaped spec (burst, drift, a mix with one) its row changes under the
// same ID, so a v1-v3 file is refused.
const CacheSchema = "optchain-rowcache/v4"

// cacheFileName is the row file inside Params.CacheDir.
const cacheFileName = "rows.jsonl"

// cacheHeader is the first line of a cache file. Seed and Validators are
// the only runner parameters a cell ID does not resolve (strategy,
// protocol, workload, stream length, and every per-cell knob are part of
// the ID), so they are the binding fields: a mismatch fails the load. The
// remaining fields are recorded for human inspection only — rows produced
// under different values of those get distinct cell IDs and coexist.
type cacheHeader struct {
	Schema     string `json:"schema"`
	Seed       int64  `json:"seed"`
	Validators int    `json:"validators"`
	N          int    `json:"n"`
	TableN     int    `json:"table_n"`
	Protocol   string `json:"protocol"`
	Workload   string `json:"workload,omitempty"`
}

// newCacheHeader derives the header from default-filled params.
func newCacheHeader(p Params) cacheHeader {
	return cacheHeader{
		Schema:     CacheSchema,
		Seed:       p.Seed,
		Validators: p.Validators,
		N:          p.N,
		TableN:     p.TableN,
		Protocol:   p.Protocol,
		Workload:   p.Workload,
	}
}

// rowCache is the persistent row store behind Params.CacheDir: an
// append-only JSONL file mirrored by an in-memory index. Appends happen as
// cells complete (one Write per row), so an interrupted run leaves a valid
// prefix and the next run resumes from it.
type rowCache struct {
	path string

	mu   sync.Mutex
	f    *os.File       // guarded by mu — append handle
	rows map[string]Row // guarded by mu — loaded entries by cell ID
}

// openRowCache opens (creating if absent) the cache file under dir and
// reads its rows through decodeRows. Any malformed content — bad header,
// corrupt or truncated line, duplicate cell ID, parameter mismatch — fails
// with ErrBadCache naming the last intact cell: a poisoned cache must fail
// loudly, not silently recompute.
func openRowCache(dir string, p Params) (*rowCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: create cache dir: %v", ErrBadCache, err)
	}
	path := filepath.Join(dir, cacheFileName)
	want := newCacheHeader(p)
	c := &rowCache{path: path, rows: make(map[string]Row)}
	if data, err := os.Open(path); err == nil {
		h, rows, derr := decodeRows(data)
		if cerr := data.Close(); derr == nil && cerr != nil {
			derr = fmt.Errorf("%w: close %s: %v", ErrBadCache, path, cerr)
		}
		if derr == nil {
			derr = want.bind(h, len(rows))
		}
		if derr != nil {
			return nil, fmt.Errorf("%s: %w", path, derr)
		}
		for _, row := range rows {
			c.rows[row.ID] = row
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: open %s: %v", ErrBadCache, path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: open %s for append: %v", ErrBadCache, path, err)
	}
	c.f = f
	if len(c.rows) == 0 {
		// Fresh (or empty) file: write the header line. An existing
		// non-empty file already passed bind.
		if fi, err := f.Stat(); err == nil && fi.Size() == 0 {
			line, merr := json.Marshal(want)
			if merr != nil {
				_ = f.Close()
				return nil, fmt.Errorf("%w: encode header: %v", ErrBadCache, merr)
			}
			if _, err := f.Write(append(line, '\n')); err != nil {
				_ = f.Close()
				return nil, fmt.Errorf("%w: write header: %v", ErrBadCache, err)
			}
		}
	}
	return c, nil
}

// bind checks that a decoded cache file (its header, nil when it has none,
// and its row count) belongs to a runner writing want: rows need a header,
// and the header's seed and validators must match. An empty file is fresh.
func (want cacheHeader) bind(h *cacheHeader, rows int) error {
	switch {
	case h == nil && rows > 0:
		return fmt.Errorf("%w: value 1 is not a cache header (want schema %q)", ErrBadCache, CacheSchema)
	case h != nil && (h.Seed != want.Seed || h.Validators != want.Validators):
		return fmt.Errorf("%w: cache written under seed=%d validators=%d, runner has seed=%d validators=%d",
			ErrBadCache, h.Seed, h.Validators, want.Seed, want.Validators)
	}
	return nil
}

// get returns the cached row for a cell ID, if present.
func (c *rowCache) get(id string) (Row, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	row, ok := c.rows[id]
	return row, ok
}

// put persists one completed row, keyed by its cell ID. Entries are pure
// cell data: sweep identity (Sweep, Index) and host timing (WallSeconds)
// are zeroed so the same cell caches to identical bytes regardless of
// which sweep produced it first, making an interrupted-then-resumed cache
// file byte-identical to an uninterrupted one. Re-putting a present ID is
// a no-op, so the file never holds an ID twice.
func (c *rowCache) put(row Row) error {
	row.Sweep = ""
	row.Index = 0
	row.WallSeconds = 0
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.rows[row.ID]; ok {
		return nil
	}
	if c.f == nil {
		return fmt.Errorf("%w: cache closed before cell %q could persist", ErrBadCache, row.ID)
	}
	line, err := json.Marshal(row)
	if err != nil {
		return fmt.Errorf("%w: encode cell %q: %v", ErrBadCache, row.ID, err)
	}
	if _, err := c.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("%w: append cell %q to %s: %v", ErrBadCache, row.ID, c.path, err)
	}
	c.rows[row.ID] = row
	return nil
}

// Close releases the append handle. Safe to call once; the Runner owns the
// lifecycle.
func (c *rowCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
