package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"optchain"
	"optchain/serve"
)

// testShards is the shard count every serve test uses.
const testShards = 8

// resLine mirrors one /v1/place response line as a client decodes it.
type resLine struct {
	ID           string `json:"id"`
	Index        int    `json:"index"`
	Shard        int    `json:"shard"`
	Error        string `json:"error"`
	Code         int    `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms"`
}

// newEngine builds a fresh OptChain engine sized for n streamed txs.
func newEngine(t *testing.T, n int, extra ...optchain.Option) *optchain.Engine {
	t.Helper()
	opts := append([]optchain.Option{
		optchain.WithShards(testShards),
		optchain.WithStrategy("OptChain"),
		optchain.WithStreamCapacity(n),
		optchain.WithSeed(1),
	}, extra...)
	e, err := optchain.New(opts...)
	if err != nil {
		t.Fatalf("New engine: %v", err)
	}
	return e
}

// newServer builds a serve.Server over cfg (filling Engine if unset) plus an
// httptest HTTP front end, and tears both down at test end.
func newServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Engine == nil {
		cfg.Engine = newEngine(t, 4096)
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx) // double-close after explicit closes is ErrServerClosed; fine
	})
	return s, ts
}

// postLines POSTs a JSON-lines body to /v1/place and decodes the streamed
// response lines.
func postLines(t *testing.T, ts *httptest.Server, lines []string) (*http.Response, []resLine) {
	t.Helper()
	body := strings.Join(lines, "\n")
	resp, err := http.Post(ts.URL+"/v1/place", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/place: %v", err)
	}
	defer resp.Body.Close()
	return resp, decodeLines(t, resp.Body)
}

// decodeLines decodes a /v1/place response body line by line.
func decodeLines(t *testing.T, body io.Reader) []resLine {
	t.Helper()
	var out []resLine
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r resLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Errorf("bad response line %q: %v", sc.Text(), err)
			return out
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Errorf("read response: %v", err)
	}
	return out
}

// reqLine renders one placement request as a JSON line.
func reqLine(t *testing.T, r serve.Request) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	return string(b)
}

// closeServer shuts the server down, tolerating nothing but success.
func closeServer(t *testing.T, s *serve.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// scrapeMetric fetches /metrics and returns the value of the first sample
// whose name+labels prefix matches series exactly.
func scrapeMetric(t *testing.T, ts *httptest.Server, series string) (float64, bool) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || name != series {
			continue
		}
		var f float64
		if _, err := fmt.Sscanf(val, "%g", &f); err != nil {
			t.Fatalf("metric %s: bad value %q", series, val)
		}
		return f, true
	}
	return 0, false
}
