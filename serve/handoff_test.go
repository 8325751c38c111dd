package serve_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"optchain"
	"optchain/internal/placement"
	"optchain/internal/txgraph"
	"optchain/serve"
)

// positionalLines renders txs as /v1/place lines that name inputs by
// absolute stream position.
func positionalLines(t *testing.T, txs []optchain.StreamTx) []string {
	t.Helper()
	lines := make([]string, len(txs))
	for i, tx := range txs {
		lines[i] = reqLine(t, serve.Request{Inputs: tx.Inputs, Outputs: tx.Outputs})
	}
	return lines
}

// TestEveryHandOffPlacesTheSameStream sends one stream three ways — a Place
// call per line, 1024-line windows of one POST, 7-line POSTs over four
// connections at once — and holds every line to the reference PlaceBatch
// decision and an index of its own.
func TestEveryHandOffPlacesTheSameStream(t *testing.T) {
	const n = 3000
	txs := mixStream(t, n)
	want, err := newEngine(t, n).PlaceBatch(txs, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	check := func(t *testing.T, i int, index, shard int) {
		t.Helper()
		if index != i || shard != want[i] {
			t.Fatalf("line %d placed (index %d, shard %d), reference says (index %d, shard %d)", i, index, shard, i, want[i])
		}
	}

	t.Run("one Place call per line", func(t *testing.T) {
		s, _ := newServer(t, serve.Config{Engine: newEngine(t, n)})
		for i, tx := range txs {
			r, err := s.Place(context.Background(), serve.Request{Inputs: tx.Inputs, Outputs: tx.Outputs})
			if err != nil {
				t.Fatalf("Place %d: %v", i, err)
			}
			check(t, i, r.Index, r.Shard)
		}
	})

	t.Run("1024-line windows", func(t *testing.T) {
		_, ts := newServer(t, serve.Config{Engine: newEngine(t, n)})
		_, out := postLines(t, ts, positionalLines(t, txs))
		if len(out) != n {
			t.Fatalf("%d response lines, want %d", len(out), n)
		}
		for i, r := range out {
			if r.Error != "" {
				t.Fatalf("line %d: %+v", i, r)
			}
			check(t, i, r.Index, r.Shard)
		}
		if v, _ := scrapeMetric(t, ts, "optchain_serve_batches_total"); v != 3 {
			t.Errorf("%g batches for %d lines of one body, want 3 (two full windows and the rest)", v, n)
		}
	})

	// Four clients send the stream's transactions under ids of their own
	// ("c<client>-<tx>"), so how their POSTs interleave decides the stream
	// order; replaying the stream in the order the server reports must give
	// the server's shards.
	t.Run("7-line POSTs from 4 connections", func(t *testing.T) {
		const clients, per, post = 4, n / 4, 7
		s, ts := newServer(t, serve.Config{Engine: newEngine(t, n)})
		type placed struct{ client, tx, shard int }
		at := make([]*placed, n) // by reported index
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hc := &http.Client{Transport: &http.Transport{}}
				defer hc.CloseIdleConnections()
				for lo := 0; lo < per; lo += post {
					hi := min(lo+post, per)
					var lines []string
					for i := lo; i < hi; i++ {
						req := serve.Request{ID: fmt.Sprintf("c%d-%d", c, i), Outputs: txs[i].Outputs}
						for _, in := range txs[i].Inputs {
							req.Parents = append(req.Parents, fmt.Sprintf("c%d-%d", c, in))
						}
						lines = append(lines, reqLine(t, req))
					}
					out := postVia(t, hc, ts, lines)
					mu.Lock()
					for k, r := range out {
						if r.Error != "" || r.ID != fmt.Sprintf("c%d-%d", c, lo+k) || r.Index < 0 || r.Index >= n || at[r.Index] != nil {
							t.Errorf("client %d line %d: %+v", c, lo+k, r)
							continue
						}
						at[r.Index] = &placed{c, lo + k, r.Shard}
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		// Every client's stream is the first per transactions, whose inputs
		// all lie below per: translate them to where the server put them.
		where := make([][]int, clients)
		for c := range where {
			where[c] = make([]int, per)
		}
		replay := make([]optchain.StreamTx, clients*per)
		for idx, p := range at[:clients*per] {
			if p == nil {
				t.Fatalf("no line was placed at index %d", idx)
			}
			where[p.client][p.tx] = idx
			tx := optchain.StreamTx{Outputs: txs[p.tx].Outputs}
			for _, in := range txs[p.tx].Inputs {
				tx.Inputs = append(tx.Inputs, where[p.client][in])
			}
			replay[idx] = tx
		}
		ref, err := newEngine(t, n).PlaceBatch(replay, nil)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		for idx, p := range at[:clients*per] {
			if p.shard != ref[idx] {
				t.Fatalf("index %d (client %d tx %d): served shard %d, replay says %d", idx, p.client, p.tx, p.shard, ref[idx])
			}
		}
		if placed := s.Engine().Stats().Placed; placed != clients*per {
			t.Fatalf("engine placed %d, want %d", placed, clients*per)
		}
	})
}

// postVia is postLines over a client of the caller's, so a test decides
// which connection a body travels on.
func postVia(t *testing.T, hc *http.Client, ts *httptest.Server, lines []string) []resLine {
	t.Helper()
	resp, err := hc.Post(ts.URL+"/v1/place", "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Errorf("POST /v1/place: %v", err)
		return nil
	}
	defer resp.Body.Close()
	return decodeLines(t, resp.Body)
}

// rawPost returns the response body of one /v1/place POST as sent.
func rawPost(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/place", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/place: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return string(raw)
}

// TestWindowAnswersInRequestOrder: one window mixing lines that place with
// lines that fail in every way a line can answers each in its place, byte
// for byte.
func TestWindowAnswersInRequestOrder(t *testing.T) {
	want, err := newEngine(t, 16).PlaceBatch([]optchain.StreamTx{
		{Outputs: 2}, {Inputs: []int{0}, Outputs: 1}, {Inputs: []int{0, 1}, Outputs: 1}, {Outputs: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, serve.Config{})
	got := rawPost(t, ts, strings.Join([]string{
		`{"id":"a","outputs":2}`,
		`{"outputs":`,
		`{"id":"a","outputs":1}`,
		`{"id":"b","parents":["nope"],"outputs":1}`,
		`{"id":"c","parents":["a"],"outputs":1}`,
		``,
		`{"inputs":[0,1],"outputs":1}`,
		`{"inputs":[3],"outputs":1}`,
		`{"id":"<d>","outputs":1}`,
	}, "\n"))
	exp := strings.Join([]string{
		fmt.Sprintf(`{"id":"a","index":0,"shard":%d}`, want[0]),
		`{"index":0,"shard":0,"error":"bad request line 2: unexpected end of JSON input","code":400}`,
		`{"id":"a","index":0,"shard":0,"error":"serve: bad request: id \"a\" already names stream position 0","code":400}`,
		`{"id":"b","index":0,"shard":0,"error":"serve: bad request: unknown parent id \"nope\" (parents must be placed first)","code":400}`,
		fmt.Sprintf(`{"id":"c","index":1,"shard":%d}`, want[1]),
		fmt.Sprintf(`{"index":2,"shard":%d}`, want[2]),
		`{"index":0,"shard":0,"error":"serve: bad request: input position 3 not in [0, 3)","code":400}`,
		fmt.Sprintf(`{"id":"\u003cd\u003e","index":3,"shard":%d}`, want[3]), // as json.Encoder escapes it
	}, "\n") + "\n"
	if got != exp {
		t.Fatalf("response\n%s\nwant\n%s", got, exp)
	}
}

// TestOversizedLineFailsAlone: a request line over the limit is answered 400
// in its place and the lines after it are still served.
func TestOversizedLineFailsAlone(t *testing.T) {
	_, ts := newServer(t, serve.Config{})
	long := `{"id":"` + strings.Repeat("x", 1<<20) + `","outputs":1}`
	_, out := postLines(t, ts, []string{`{"id":"a","outputs":1}`, `{"outputs":1}`, long, `{"parents":["a"],"outputs":1}`, `{"outputs":2}`})
	if len(out) != 5 {
		t.Fatalf("%d response lines, want 5", len(out))
	}
	for i, r := range out {
		if i == 2 {
			if r.Code != http.StatusBadRequest || !strings.Contains(r.Error, "bad request line 3: longer than") {
				t.Errorf("long line answered %+v, want code 400", r)
			}
			continue
		}
		if wantIdx := i - i/3; r.Error != "" || r.Index != wantIdx {
			t.Errorf("line %d answered %+v, want index %d", i, r, wantIdx)
		}
	}
}

// TestPartialAdmission pins the engine-owner lock inside the engine and
// posts a window larger than the room the queue has: the prefix that fits
// waits and is placed, the tail is rejected line by line with the advertised
// backoff, and retrying the tail loses nothing.
func TestPartialAdmission(t *testing.T) {
	const queueDepth, sent = 4, 6
	s, ts, entered, gate := newGatedServer(t, serve.Config{QueueDepth: queueDepth, MaxBatch: 8, RetryAfter: 2 * time.Second})
	pinned := make(chan error, 1)
	go func() {
		_, err := s.Place(context.Background(), serve.Request{ID: "pin", Outputs: 1})
		pinned <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the pinning request never reached the engine")
	}

	lines := make([]string, sent)
	for i := range lines {
		lines[i] = reqLine(t, serve.Request{ID: idOf(i), Parents: []string{"pin"}, Outputs: 1})
	}
	answered := make(chan []resLine, 1)
	go func() { answered <- postVia(t, ts.Client(), ts, lines) }()
	waitQueueDepth(t, s, queueDepth)
	if depth, _ := s.Queue(); depth != queueDepth {
		t.Fatalf("queue holds %d lines, want the %d it has room for", depth, queueDepth)
	}

	close(gate)
	if err := <-pinned; err != nil {
		t.Fatalf("pinning request: %v", err)
	}
	out := <-answered
	if len(out) != sent {
		t.Fatalf("%d response lines, want %d", len(out), sent)
	}
	for i, r := range out {
		switch {
		case r.ID != idOf(i):
			t.Errorf("line %d answered out of order: %+v", i, r)
		case i < queueDepth && (r.Error != "" || r.Index != 1+i):
			t.Errorf("admitted line %d: %+v, want index %d", i, r, 1+i)
		case i >= queueDepth && (r.Code != http.StatusTooManyRequests || r.RetryAfterMS != 2000):
			t.Errorf("line %d behind the queue's room: %+v, want code 429 with retry_after_ms 2000", i, r)
		}
	}
	_, retried := postLines(t, ts, lines[queueDepth:])
	for i, r := range retried {
		if r.Error != "" || r.ID != idOf(queueDepth+i) || r.Index != 1+queueDepth+i {
			t.Errorf("retried line %d: %+v", queueDepth+i, r)
		}
	}
	if placed := s.Engine().Stats().Placed; placed != 1+sent {
		t.Fatalf("engine placed %d, want %d", placed, 1+sent)
	}
	if v, _ := scrapeMetric(t, ts, `optchain_serve_lines_total{outcome="rejected"}`); v != sent-queueDepth {
		t.Fatalf("rejected counter %g, want %d", v, sent-queueDepth)
	}
}

// TestCloseAndSnapshotRaceCallerRuns: callers placing their own lines race
// snapshots and then Close. Every call ends in a decision or
// ErrServerClosed, and the final snapshot holds exactly the decisions made.
// Run under -race (make test-race).
func TestCloseAndSnapshotRaceCallerRuns(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "state.bin")
	s, err := serve.New(serve.Config{Engine: newEngine(t, 1<<16), StatePath: statePath, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	decided := make([]int, 3)
	for c := range decided {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				_, err := s.Place(context.Background(), serve.Request{ID: fmt.Sprintf("c%d-%d", c, i), Outputs: 1})
				if errors.Is(err, serve.ErrServerClosed) {
					return
				}
				if err != nil {
					t.Errorf("Place: %v", err)
					return
				}
				decided[c]++
			}
		}()
	}
	for i := 0; i < 5; i++ {
		if err := s.Snapshot(context.Background()); err != nil {
			t.Errorf("Snapshot: %v", err)
		}
		resp, err := http.Post(ts.URL+"/v1/snapshot", "text/plain", nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("POST /v1/snapshot: %v, %v", resp, err)
		}
		if err == nil {
			resp.Body.Close()
		}
	}
	closeServer(t, s)
	wg.Wait()
	if err := s.Snapshot(context.Background()); !errors.Is(err, serve.ErrServerClosed) {
		t.Errorf("Snapshot after Close: %v, want ErrServerClosed", err)
	}

	total := decided[0] + decided[1] + decided[2]
	restored, err := serve.New(serve.Config{Engine: newEngine(t, 1<<16), StatePath: statePath, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer closeServer(t, restored)
	if placed := restored.Engine().Stats().Placed; placed != total || total == 0 {
		t.Fatalf("final snapshot holds %d placements, callers were given %d decisions", placed, total)
	}
	// Every id a caller was answered for is in the restored map.
	for c, n := range decided {
		if n == 0 {
			continue
		}
		last := fmt.Sprintf("c%d-%d", c, n-1)
		if _, err := restored.Place(context.Background(), serve.Request{Parents: []string{last}, Outputs: 1}); err != nil {
			t.Errorf("restored server does not know %s: %v", last, err)
		}
	}
}

// discard is an http.ResponseWriter that keeps nothing.
type discard struct{ hdr http.Header }

func (d *discard) Header() http.Header         { return d.hdr }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }

// TestAllocationBudgets: what a served line may allocate. A Place call on an
// idle server allocates nothing, and a 1024-line positional POST through
// the handler stays under 0.05 allocations a line: what is left is per
// request (the *http.Request, the mux match), not per line.
func TestAllocationBudgets(t *testing.T) {
	const lines, runs = 1024, 20
	s, _ := newServer(t, serve.Config{Engine: newEngine(t, (runs+2)*lines+4096)})
	ctx := context.Background()
	if _, err := s.Place(ctx, serve.Request{Outputs: 2}); err != nil {
		t.Fatal(err)
	}
	inputs := []int{0}
	if got := testing.AllocsPerRun(1000, func() {
		if _, err := s.Place(ctx, serve.Request{Inputs: inputs, Outputs: 2}); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Place on an idle server allocates %v times a call, want 0", got)
	}

	var body bytes.Buffer
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&body, `{"inputs":[0,%d],"outputs":2}`+"\n", i%7)
	}
	h, w := s.Handler(), &discard{hdr: make(http.Header)}
	post := func() {
		req, err := http.NewRequest(http.MethodPost, "http://gateway/v1/place", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		h.ServeHTTP(w, req)
	}
	post() // fill the pooled scratch
	before := s.Engine().Stats().Placed
	got := testing.AllocsPerRun(runs, post)
	if placed := s.Engine().Stats().Placed - before; placed != (runs+1)*lines {
		t.Fatalf("placed %d lines, want %d", placed, (runs+1)*lines)
	}
	if perLine := got / lines; perLine >= 0.05 {
		t.Errorf("a %d-line POST allocates %v times, %.3f a line; the budget is 0.05 a line", lines, got, perLine)
	}
}

// stallingPlacer places by residue until it is asked for transaction
// failAt, for which it names a shard that does not exist: the engine stops
// the batch there.
type stallingPlacer struct {
	a      *placement.Assignment
	failAt txgraph.Node
}

func (p *stallingPlacer) Place(u txgraph.Node, inputs []txgraph.Node) int {
	if u == p.failAt {
		p.failAt = -1 // once
		return p.a.K()
	}
	s := int(u) % p.a.K()
	p.a.Place(u, s)
	return s
}

func (p *stallingPlacer) Assignment() *placement.Assignment { return p.a }
func (p *stallingPlacer) Name() string                      { return "StallingTest" }

var registerStalling = sync.OnceValue(func() error {
	return optchain.RegisterStrategy("stalling-test", func(ctx optchain.StrategyContext) (placement.Placer, error) {
		return &stallingPlacer{a: placement.NewAssignment(ctx.K, ctx.N), failAt: 2}, nil
	})
})

// TestEngineStopMidWindow: when the engine stops inside a window (a custom
// strategy misbehaving), the lines before the stop keep their decisions,
// every line from it on is failed, and their ids are free again.
func TestEngineStopMidWindow(t *testing.T) {
	if err := registerStalling(); err != nil {
		t.Fatal(err)
	}
	eng, err := optchain.New(optchain.WithShards(testShards), optchain.WithStrategy("stalling-test"), optchain.WithStreamCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newServer(t, serve.Config{Engine: eng})
	lines := make([]string, 5)
	for i := range lines {
		lines[i] = reqLine(t, serve.Request{ID: idOf(i), Outputs: 1})
	}
	_, out := postLines(t, ts, lines)
	if len(out) != len(lines) {
		t.Fatalf("%d response lines, want %d", len(out), len(lines))
	}
	for i, r := range out {
		if placed := i < 2; placed != (r.Error == "") || (placed && r.Index != i) || (!placed && r.Code != http.StatusBadRequest) {
			t.Errorf("line %d: %+v; the engine stopped at line 2", i, r)
		}
	}
	_, out = postLines(t, ts, append(lines[2:], reqLine(t, serve.Request{Parents: []string{idOf(1), idOf(4)}, Outputs: 1})))
	for i, r := range out {
		if r.Error != "" || r.Index != 2+i {
			t.Errorf("retried line %d: %+v, want index %d", i, r, 2+i)
		}
	}
	if v, _ := scrapeMetric(t, ts, `optchain_serve_lines_total{outcome="invalid"}`); v != 3 {
		t.Errorf("invalid counter %g, want the 3 lines the stop failed", v)
	}
}

// TestAbandonedWindow: a request whose context expires while its window is
// queued is answered 504 line by line at once, and the dispatcher drops the
// window before placement when it gets to it.
func TestAbandonedWindow(t *testing.T) {
	s, ts, entered, gate := newGatedServer(t, serve.Config{})
	pinned := make(chan error, 1)
	go func() {
		_, err := s.Place(context.Background(), serve.Request{ID: "pin", Outputs: 1})
		pinned <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the pinning request never reached the engine")
	}

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"id":"a","outputs":1}` + "\n" + `{"outputs":` + "\n" + `{"id":"b","parents":["a"],"outputs":1}`
	req := httptest.NewRequest(http.MethodPost, "/v1/place", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.Handler().ServeHTTP(rec, req)
	}()
	waitQueueDepth(t, s, 3)
	cancel()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler did not give up its queued window")
	}
	out := decodeLines(t, rec.Body)
	if len(out) != 3 {
		t.Fatalf("%d response lines, want 3", len(out))
	}
	for i, r := range out {
		if r.Code != http.StatusGatewayTimeout || r.Error != context.Canceled.Error() {
			t.Errorf("line %d: %+v, want code 504", i, r)
		}
	}

	close(gate)
	if err := <-pinned; err != nil {
		t.Fatalf("pinning request: %v", err)
	}
	waitPlaced(t, s, 1)
	if placed := s.Engine().Stats().Placed; placed != 1 {
		t.Fatalf("engine placed %d, want 1: an expired window must not be placed", placed)
	}
	if v, _ := scrapeMetric(t, ts, `optchain_serve_lines_total{outcome="expired"}`); v != 2 {
		t.Errorf("expired counter %g, want the window's 2 well-formed lines", v)
	}
}
