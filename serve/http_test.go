package serve_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"optchain/serve"
)

func TestPlaceSingleRequest(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	resp, lines := postLines(t, ts, []string{`{"id":"genesis","outputs":2}`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if len(lines) != 1 {
		t.Fatalf("%d response lines, want 1", len(lines))
	}
	r := lines[0]
	if r.Error != "" || r.ID != "genesis" || r.Index != 0 || r.Shard < 0 || r.Shard >= testShards {
		t.Fatalf("bad decision %+v", r)
	}
}

func TestPlaceStreamOrderedWithParents(t *testing.T) {
	s, ts := newServer(t, serve.Config{})
	const n = 200
	lines := make([]string, n)
	for i := range lines {
		req := serve.Request{ID: idOf(i), Outputs: 2}
		if i > 0 {
			req.Parents = []string{idOf(i - 1)}
		}
		if i > 10 {
			req.Inputs = []int{i - 10} // absolute positions mix with parents
		}
		lines[i] = reqLine(t, req)
	}
	resp, out := postLines(t, ts, lines)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if len(out) != n {
		t.Fatalf("%d response lines, want %d", len(out), n)
	}
	for i, r := range out {
		if r.Error != "" {
			t.Fatalf("line %d failed: %+v", i, r)
		}
		if r.Index != i {
			t.Fatalf("line %d got index %d; single-connection streams must place in order", i, r.Index)
		}
		if r.Shard < 0 || r.Shard >= testShards {
			t.Fatalf("line %d shard %d out of range", i, r.Shard)
		}
	}
	if placed := s.Engine().Stats().Placed; placed != n {
		t.Fatalf("engine placed %d, want %d", placed, n)
	}
}

func TestPlaceBadLines(t *testing.T) {
	cases := map[string]struct {
		line     string
		wantCode int
	}{
		"malformed json": {`{"outputs":`, http.StatusBadRequest},
		"unknown parent": {`{"parents":["nope"],"outputs":1}`, http.StatusBadRequest},
		"future input":   {`{"inputs":[99],"outputs":1}`, http.StatusBadRequest},
		"negative input": {`{"inputs":[-1],"outputs":1}`, http.StatusBadRequest},
		"negative outs":  {`{"outputs":-3}`, http.StatusBadRequest},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			_, ts := newServer(t, serve.Config{})
			resp, out := postLines(t, ts, []string{c.line})
			if resp.StatusCode != c.wantCode {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.wantCode)
			}
			if len(out) != 1 || out[0].Error == "" || out[0].Code != c.wantCode {
				t.Fatalf("response %+v, want error line with code %d", out, c.wantCode)
			}
		})
	}
}

// TestPlaceOutputsBound: a line declaring more outputs than the engine
// accepts is answered 400 in its place, and the lines around it, in the
// same coalesced batch, are placed as if it had not been sent.
func TestPlaceOutputsBound(t *testing.T) {
	s, ts := newServer(t, serve.Config{})
	resp, out := postLines(t, ts, []string{
		`{"id":"a","outputs":2}`,
		`{"id":"big","outputs":3000000000}`,
		`{"id":"b","parents":["a"],"outputs":1}`,
	})
	if resp.StatusCode != http.StatusOK || len(out) != 3 {
		t.Fatalf("status %d, %d response lines", resp.StatusCode, len(out))
	}
	if out[1].Error == "" || out[1].Code != http.StatusBadRequest {
		t.Fatalf("the oversized line was answered %+v, want a 400", out[1])
	}
	if out[0].Error != "" || out[2].Error != "" || out[0].Index != 0 || out[2].Index != 1 {
		t.Fatalf("its neighbours were answered %+v and %+v, want indexes 0 and 1", out[0], out[2])
	}
	if st := s.Engine().Stats(); st.Placed != 2 {
		t.Fatalf("engine placed %d, want 2", st.Placed)
	}
	if _, out := postLines(t, ts, []string{`{"parents":["big"],"outputs":1}`}); len(out) != 1 || out[0].Code != http.StatusBadRequest {
		t.Fatalf("the refused line's id was registered: %+v", out)
	}
}

// postRaw POSTs body to /v1/place and returns the response with its body
// read in full.
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/place", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/place: %v", err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp, out
}

// framed fails t unless resp carried its whole body out in one framed
// write: a Content-Length of len(body), no chunking, and the type net/http
// sniffs from decision lines.
func framed(t *testing.T, resp *http.Response, body []byte) {
	t.Helper()
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v; want %d and none", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("Content-Type %q, want text/plain; charset=utf-8", ct)
	}
}

// TestPlaceFraming: a body whose last window holds all its lines is
// answered in one framed write; a body of several windows streams chunked,
// window by window, with the same bytes; and a single line still maps its
// outcome onto the HTTP status.
func TestPlaceFraming(t *testing.T) {
	const maxBatch = 8
	body := func(n int) string {
		lines := make([]string, n)
		for i := range lines {
			lines[i] = fmt.Sprintf(`{"id":"t%d","outputs":1}`, i)
		}
		return strings.Join(lines, "\n") + "\n"
	}

	t.Run("one line", func(t *testing.T) {
		_, ts := newServer(t, serve.Config{MaxBatch: maxBatch})
		resp, out := postRaw(t, ts.URL, `{"id":"genesis","outputs":2}`)
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(out), `{"id":"genesis","index":0,`) {
			t.Fatalf("status %d, body %q", resp.StatusCode, out)
		}
		framed(t, resp, out)
	})

	t.Run("one full window", func(t *testing.T) {
		_, ts := newServer(t, serve.Config{MaxBatch: maxBatch})
		resp, out := postRaw(t, ts.URL, body(maxBatch))
		if resp.StatusCode != http.StatusOK || strings.Count(string(out), "\n") != maxBatch {
			t.Fatalf("status %d, body %q", resp.StatusCode, out)
		}
		framed(t, resp, out)
	})

	t.Run("three windows", func(t *testing.T) {
		const n = 2*maxBatch + 3
		_, windowed := newServer(t, serve.Config{MaxBatch: maxBatch})
		resp, out := postRaw(t, windowed.URL, body(n))
		if resp.StatusCode != http.StatusOK || resp.ContentLength != -1 || !slices.Equal(resp.TransferEncoding, []string{"chunked"}) {
			t.Fatalf("status %d, Content-Length %d, Transfer-Encoding %v; want 200 streamed chunked",
				resp.StatusCode, resp.ContentLength, resp.TransferEncoding)
		}
		_, whole := newServer(t, serve.Config{})
		oneResp, oneOut := postRaw(t, whole.URL, body(n))
		framed(t, oneResp, oneOut)
		if string(out) != string(oneOut) {
			t.Fatalf("three windows answered\n%s\none window answered\n%s", out, oneOut)
		}
	})

	t.Run("bad line", func(t *testing.T) {
		_, ts := newServer(t, serve.Config{MaxBatch: maxBatch})
		resp, out := postRaw(t, ts.URL, `{"outputs":`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), `"code":400`) {
			t.Fatalf("status %d, body %q; want a 400 error line", resp.StatusCode, out)
		}
		framed(t, resp, out)
	})

	t.Run("queue full", func(t *testing.T) {
		s, ts, entered, gate := newGatedServer(t, serve.Config{QueueDepth: 1, MaxBatch: 1, RetryAfter: 2 * time.Second})
		placed := make(chan error, 2)
		place := func(id string) {
			_, err := s.Place(context.Background(), serve.Request{ID: id, Outputs: 1})
			placed <- err
		}
		go place("pin")
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("the pinning request never reached the engine")
		}
		go place("queued")
		waitQueueDepth(t, s, 1)
		resp, out := postRaw(t, ts.URL, `{"id":"shed","outputs":1}`)
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "2" || !strings.Contains(string(out), `"code":429`) {
			t.Fatalf("status %d, Retry-After %q, body %q; want 429 after 2s", resp.StatusCode, resp.Header.Get("Retry-After"), out)
		}
		framed(t, resp, out)
		close(gate)
		for range 2 {
			if err := <-placed; err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestPlaceInteractiveFullDuplex: a client that sends a window, waits for
// its answers and only then sends the next gets every window answered while
// its body is still open. A server that held a full window back to learn
// whether more lines follow would deadlock this exchange.
func TestPlaceInteractiveFullDuplex(t *testing.T) {
	const maxBatch, windows = 16, 3
	_, ts := newServer(t, serve.Config{MaxBatch: maxBatch})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/place", pr)
	if err != nil {
		t.Fatal(err)
	}
	sendWindow := func(w int) {
		for i := w * maxBatch; i < (w+1)*maxBatch; i++ {
			if _, err := fmt.Fprintf(pw, `{"id":"t%d","outputs":1}`+"\n", i); err != nil {
				t.Errorf("write line %d: %v", i, err)
				return
			}
		}
	}
	go sendWindow(0)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	for w := 0; w < windows; w++ {
		if w > 0 {
			go sendWindow(w)
		}
		for i := w * maxBatch; i < (w+1)*maxBatch; i++ {
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("window %d: answer %d: %v", w, i, err)
			}
			if want := fmt.Sprintf(`{"id":"t%d","index":%d,`, i, i); !strings.HasPrefix(line, want) {
				t.Fatalf("answer %q, want it to start %s", line, want)
			}
		}
	}
	pw.Close()
	if rest, err := io.ReadAll(rd); err != nil || len(rest) != 0 {
		t.Fatalf("after the body closed: %q, %v; want a clean end", rest, err)
	}
}

func TestPlaceDuplicateIDFailsLineOnly(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	resp, out := postLines(t, ts, []string{
		`{"id":"a","outputs":1}`,
		`{"id":"a","outputs":1}`,
		`{"id":"b","parents":["a"],"outputs":1}`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (multi-line bodies report per-line errors)", resp.StatusCode)
	}
	if len(out) != 3 {
		t.Fatalf("%d lines, want 3", len(out))
	}
	if out[0].Error != "" || out[2].Error != "" {
		t.Fatalf("valid lines failed: %+v", out)
	}
	if out[1].Code != http.StatusBadRequest || !strings.Contains(out[1].Error, "already names") {
		t.Fatalf("duplicate id line: %+v, want 400", out[1])
	}
	// The duplicate consumed no stream position.
	if out[2].Index != 1 {
		t.Fatalf("line after duplicate got index %d, want 1", out[2].Index)
	}
}

func TestPlaceEmptyBody(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	resp, err := http.Post(ts.URL+"/v1/place", "application/x-ndjson", strings.NewReader("\n \n"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", resp.StatusCode)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	lines := make([]string, 50)
	for i := range lines {
		lines[i] = reqLine(t, serve.Request{Outputs: 2})
	}
	if resp, _ := postLines(t, ts, lines); resp.StatusCode != http.StatusOK {
		t.Fatalf("place: status %d", resp.StatusCode)
	}
	checks := map[string]float64{
		"optchain_engine_placed_total":                           50,
		"optchain_engine_retired_total":                          0,
		"optchain_engine_retired_refs_total":                     0,
		`optchain_serve_lines_total{outcome="placed"}`:           50,
		`optchain_serve_lines_total{outcome="rejected"}`:         0,
		`optchain_serve_lines_total{outcome="invalid"}`:          0,
		"optchain_serve_queue_capacity":                          float64(serve.DefaultQueueDepth),
		`optchain_serve_place_latency_seconds_bucket{le="+Inf"}`: 50,
	}
	for series, want := range checks {
		got, ok := scrapeMetric(t, ts, series)
		if !ok {
			t.Fatalf("series %s missing from /metrics", series)
		}
		if got != want {
			t.Errorf("%s = %g, want %g", series, got, want)
		}
	}
	if v, ok := scrapeMetric(t, ts, "optchain_serve_batches_total"); !ok || v < 1 {
		t.Errorf("optchain_serve_batches_total = %g, want >= 1", v)
	}
	if v, ok := scrapeMetric(t, ts, "optchain_serve_place_latency_seconds_count"); !ok || v != 50 {
		t.Errorf("latency count = %g, want 50", v)
	}
	// 50 coinbase transactions: one slab entry and 18 bytes of columns each,
	// at the very least, spread as evenly as 50 allows (7 in the largest shard).
	if v, ok := scrapeMetric(t, ts, "optchain_engine_slab_entries"); !ok || v != 50 {
		t.Errorf("optchain_engine_slab_entries = %g, want 50", v)
	}
	if v, ok := scrapeMetric(t, ts, "optchain_engine_state_bytes"); !ok || v < 50*(18+10) {
		t.Errorf("optchain_engine_state_bytes = %g, want at least %d", v, 50*(18+10))
	}
	if v, ok := scrapeMetric(t, ts, "optchain_engine_max_shard_share"); !ok || v != 7*testShards/50.0 {
		t.Errorf("optchain_engine_max_shard_share = %g, want %g", v, 7*testShards/50.0)
	}

	// Line 0 declared two outputs: its second spender retires it, and the
	// third is placed all the same and counted.
	for i := 0; i < 3; i++ {
		line := reqLine(t, serve.Request{Inputs: []int{0}, Outputs: 1})
		if resp, _ := postLines(t, ts, []string{line}); resp.StatusCode != http.StatusOK {
			t.Fatalf("spender %d: status %d", i, resp.StatusCode)
		}
	}
	for series, want := range map[string]float64{
		"optchain_engine_placed_total":       53,
		"optchain_engine_slab_entries":       52,
		"optchain_engine_retired_total":      1,
		"optchain_engine_retired_refs_total": 1,
		// Four requests on an idle server: each window placed by its caller.
		`optchain_serve_units_total{path="caller"}`: 4,
		`optchain_serve_units_total{path="queued"}`: 0,
	} {
		if got, ok := scrapeMetric(t, ts, series); !ok || got != want {
			t.Errorf("%s = %g (present %v), want %g", series, got, ok, want)
		}
	}
}

func TestHealthzLifecycle(t *testing.T) {
	s, ts := newServer(t, serve.Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live server /healthz: %d, want 200", resp.StatusCode)
	}
	closeServer(t, s)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after close: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed server /healthz: %d, want 503", resp.StatusCode)
	}
}

func TestSnapshotEndpointNeedsStatePath(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	resp, err := http.Post(ts.URL+"/v1/snapshot", "text/plain", nil)
	if err != nil {
		t.Fatalf("POST /v1/snapshot: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("snapshot without StatePath: %d, want 409", resp.StatusCode)
	}
}

func TestPlaceAfterClose(t *testing.T) {
	s, ts := newServer(t, serve.Config{})
	closeServer(t, s)
	if _, err := s.Place(context.Background(), serve.Request{Outputs: 1}); !errors.Is(err, serve.ErrServerClosed) {
		t.Fatalf("Place after close: %v, want ErrServerClosed", err)
	}
	resp, lines := postLines(t, ts, []string{`{"outputs":1}`})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP place after close: %d (%+v), want 503", resp.StatusCode, lines)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := serve.New(serve.Config{}); !errors.Is(err, serve.ErrBadConfig) {
		t.Fatalf("New without engine: %v, want ErrBadConfig", err)
	}
	if _, err := serve.New(serve.Config{Engine: newEngine(t, 16), QueueDepth: -1}); !errors.Is(err, serve.ErrBadConfig) {
		t.Fatalf("New with negative queue: %v, want ErrBadConfig", err)
	}
}

func TestProgrammaticPlace(t *testing.T) {
	s, _ := newServer(t, serve.Config{})
	ctx := context.Background()
	a, err := s.Place(ctx, serve.Request{ID: "a", Outputs: 3})
	if err != nil {
		t.Fatalf("Place a: %v", err)
	}
	b, err := s.Place(ctx, serve.Request{ID: "b", Parents: []string{"a"}, Outputs: 1})
	if err != nil {
		t.Fatalf("Place b: %v", err)
	}
	if a.Index != 0 || b.Index != 1 {
		t.Fatalf("indexes %d,%d want 0,1", a.Index, b.Index)
	}
	if _, err := s.Place(ctx, serve.Request{Parents: []string{"ghost"}, Outputs: 1}); !errors.Is(err, serve.ErrBadRequest) {
		t.Fatalf("unknown parent: %v, want ErrBadRequest", err)
	}
}

func idOf(i int) string { return "tx-" + strconv.Itoa(i) }
