package experiment

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDiffRows fuzzes the one row reader — decodeRows, behind DecodeRows,
// -diff and the row cache (jsonl and row-cache forms) — together with the
// cache's header binding, on arbitrary bytes. The contract under fuzzing:
// never panic, and every accepted input decodes to rows with non-empty
// unique cell IDs; every refusal, by the decoder or the binding, is an
// ErrBadCache. Wired into `make fuzz-smoke`.
func FuzzDiffRows(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("{\"id\":\"a\",\"kind\":\"sim\",\"steady_tps\":100,\"cross_fraction\":0.5,\"wall_seconds\":1}\n"))
	f.Add([]byte("{\"id\":\"a\"}\n{\"id\":\"b\"}\n"))
	f.Add([]byte("{\"id\":\"a\"}\n{\"id\":\"a\"}\n")) // duplicate cell IDs
	f.Add([]byte("{\"schema\":\"optchain-rowcache/v2\",\"seed\":1,\"validators\":4}\n{\"id\":\"a\",\"wall_seconds\":0}\n"))
	f.Add([]byte("{\"schema\":\"optchain-rowcache/v0\"}\n"))                                                    // stale cache schema
	f.Add([]byte("{\"schema\":\"optchain-bench-baseline/v6\",\"sim\":[{\"cell_id\":\"a\",\"steady_tps\":1}]}")) // retired baseline record: refused
	f.Add([]byte("{\"schema\":\"optchain-bench-baseline/v3\",\"sim\":[]}"))                                     // older baseline record: refused
	f.Add([]byte("{\"id\":\"a\",\"steady_tps\":"))                                                              // truncated mid-value
	f.Add([]byte("{\"id\":\"a\"}\ngarbage"))
	f.Add([]byte("null\n{\"id\":\"a\"}"))
	f.Add([]byte("{\"schema\":\"optchain-rowcache/v2\",\"seed\":2,\"validators\":4}\n{\"id\":\"a\"}\n")) // header of another seed
	f.Add([]byte("{\"schema\":\"optchain-rowcache/v2\",\"seed\":\"x\"}\n"))                              // malformed header
	f.Add([]byte("{\"schema\":\"optchain-rowcache/v2\",\"seed\":1,\"validators\":5}\n"))                 // header of another committee size
	f.Add([]byte("{\"schema\":\"optchain-rowcache/v1\",\"seed\":1,\"validators\":4}\n{\"id\":\"a\"}\n")) // v1 cache: refused

	f.Fuzz(func(t *testing.T, data []byte) {
		h, rows, err := decodeRows(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadCache) {
				t.Fatalf("decodeRows error outside ErrBadCache: %v", err)
			}
			return
		}
		seen := map[string]bool{}
		for i, r := range rows {
			if r.ID == "" {
				t.Fatalf("accepted row %d has no cell ID", i)
			}
			if seen[r.ID] {
				t.Fatalf("accepted duplicate cell %q", r.ID)
			}
			seen[r.ID] = true
		}
		if h != nil && h.Schema != CacheSchema {
			t.Fatalf("accepted cache header with schema %q", h.Schema)
		}
		want := newCacheHeader(Params{Seed: 1, Validators: 4})
		err = want.bind(h, len(rows))
		switch {
		case err != nil && !errors.Is(err, ErrBadCache):
			t.Fatalf("bind error outside ErrBadCache: %v", err)
		case err == nil && h == nil && len(rows) > 0:
			t.Fatal("rows without a cache header bound to the cache")
		case err == nil && h != nil && (h.Seed != want.Seed || h.Validators != want.Validators):
			t.Fatalf("header seed=%d validators=%d bound to seed=%d validators=%d", h.Seed, h.Validators, want.Seed, want.Validators)
		}
	})
}
