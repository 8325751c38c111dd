package experiment

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// CacheSchema versions the on-disk row-cache layout (see Params.CacheDir).
// A cache file is one JSONL stream: a header line carrying this schema tag
// and the parameters the rows were produced under, then one completed Row
// per line in completion order. Loading a file with any other schema tag
// fails with ErrBadCache.
const CacheSchema = "optchain-rowcache/v1"

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
// loads its rows. Any malformed content — bad header, corrupt or truncated
// line, duplicate cell ID, parameter mismatch — fails with ErrBadCache.
func openRowCache(dir string, p Params) (*rowCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: create cache dir: %v", ErrBadCache, err)
	}
	path := filepath.Join(dir, cacheFileName)
	want := newCacheHeader(p)
	c := &rowCache{path: path, rows: make(map[string]Row)}
	if data, err := os.Open(path); err == nil {
		rows, lerr := loadCacheRows(data, want)
		if cerr := data.Close(); lerr == nil && cerr != nil {
			lerr = fmt.Errorf("%w: close %s: %v", ErrBadCache, path, cerr)
		}
		if lerr != nil {
			return nil, fmt.Errorf("%s: %w", path, lerr)
		}
		c.rows = rows
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
		// non-empty file already validated its header in loadCacheRows.
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

// loadCacheRows decodes one cache file: the header line (validated against
// want), then one Row per line. Every defect is an ErrBadCache naming the
// line and, when known, the cell ID involved — a poisoned cache must fail
// loudly, not silently recompute.
func loadCacheRows(r io.Reader, want cacheHeader) (map[string]Row, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("%w: read header: %v", ErrBadCache, err)
		}
		// Empty file: treated as fresh (the caller writes the header).
		return make(map[string]Row), nil
	}
	var h cacheHeader
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || h.Schema == "" {
		return nil, fmt.Errorf("%w: line 1 is not a cache header (want schema %q)", ErrBadCache, CacheSchema)
	}
	if h.Schema != CacheSchema {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrBadCache, h.Schema, CacheSchema)
	}
	if h.Seed != want.Seed || h.Validators != want.Validators {
		return nil, fmt.Errorf("%w: cache written under seed=%d validators=%d, runner has seed=%d validators=%d",
			ErrBadCache, h.Seed, h.Validators, want.Seed, want.Validators)
	}
	rows := make(map[string]Row)
	lastID := ""
	for line := 2; sc.Scan(); line++ {
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var row Row
		if err := json.Unmarshal(text, &row); err != nil {
			return nil, fmt.Errorf("%w: line %d corrupt (after cell %q): %v", ErrBadCache, line, lastID, err)
		}
		if row.ID == "" {
			return nil, fmt.Errorf("%w: line %d has no cell ID (after cell %q)", ErrBadCache, line, lastID)
		}
		if _, dup := rows[row.ID]; dup {
			return nil, fmt.Errorf("%w: line %d duplicates cell %q", ErrBadCache, line, row.ID)
		}
		rows[row.ID] = row
		lastID = row.ID
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%w: read after cell %q: %v", ErrBadCache, lastID, err)
	}
	return rows, nil
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
// a no-op (an Uncached cell must not append duplicates).
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
