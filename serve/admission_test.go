package serve_test

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"optchain"
	"optchain/internal/placement"
	"optchain/internal/txgraph"
	"optchain/serve"

	"net/http/httptest"
)

// gatedPlacer blocks its first Place call on a gate channel, pinning the
// dispatcher mid-batch so tests can fill the ingest queue deterministically.
type gatedPlacer struct {
	a       *placement.Assignment
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gatedPlacer) Place(u txgraph.Node, inputs []txgraph.Node) int {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	s := int(u) % g.a.K()
	g.a.Place(u, s)
	return s
}

func (g *gatedPlacer) Assignment() *placement.Assignment { return g.a }
func (g *gatedPlacer) Name() string                      { return "GatedTest" }

var gatedCurrent struct {
	mu      sync.Mutex
	entered chan struct{}
	gate    chan struct{}
}

var registerGated = sync.OnceValue(func() error {
	return optchain.RegisterStrategy("gated-test", func(ctx optchain.StrategyContext) (placement.Placer, error) {
		gatedCurrent.mu.Lock()
		defer gatedCurrent.mu.Unlock()
		return &gatedPlacer{
			a:       placement.NewAssignment(ctx.K, ctx.N),
			entered: gatedCurrent.entered,
			gate:    gatedCurrent.gate,
		}, nil
	})
})

// newGatedServer builds a server whose strategy blocks on the returned gate
// the first time the engine places, signalling entered when it does.
func newGatedServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server, chan struct{}, chan struct{}) {
	t.Helper()
	if err := registerGated(); err != nil {
		t.Fatalf("register gated strategy: %v", err)
	}
	entered := make(chan struct{})
	gate := make(chan struct{})
	gatedCurrent.mu.Lock()
	gatedCurrent.entered = entered
	gatedCurrent.gate = gate
	gatedCurrent.mu.Unlock()
	eng, err := optchain.New(
		optchain.WithShards(testShards),
		optchain.WithStrategy("gated-test"),
		optchain.WithStreamCapacity(4096),
	)
	if err != nil {
		t.Fatalf("New gated engine: %v", err)
	}
	cfg.Engine = eng
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	return s, ts, entered, gate
}

// TestAdmissionControl pins the dispatcher mid-batch, fills the ingest
// queue, and asserts the overload contract: the queue-full request is
// rejected immediately with 429 + Retry-After, and every request the queue
// accepted still gets a decision once the engine unblocks — overload sheds
// new load, never accepted load.
func TestAdmissionControl(t *testing.T) {
	const queueDepth = 4
	s, ts, entered, gate := newGatedServer(t, serve.Config{
		QueueDepth: queueDepth,
		MaxBatch:   2,
		RetryAfter: 3 * time.Second,
	})

	// One request pins the dispatcher inside the engine call.
	type result struct {
		resp serve.Response
		err  error
	}
	results := make(chan result, queueDepth+1)
	place := func(id string) {
		r, err := s.Place(context.Background(), serve.Request{ID: id, Outputs: 1})
		results <- result{r, err}
	}
	go place("pin")
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher never reached the engine")
	}

	// Fill the queue to capacity behind the pinned batch.
	for i := 0; i < queueDepth; i++ {
		go place(idOf(i))
	}
	waitQueueDepth(t, s, queueDepth)

	// The queue is full: the next HTTP request must be shed with 429 and a
	// Retry-After hint, without waiting for the engine.
	resp, lines := postLines(t, ts, []string{`{"id":"shed","outputs":1}`})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}
	if len(lines) != 1 || lines[0].Code != http.StatusTooManyRequests || lines[0].RetryAfterMS != 3000 {
		t.Fatalf("shed line %+v, want code 429 with retry_after_ms 3000", lines)
	}
	if _, err := s.Place(context.Background(), serve.Request{ID: "shed2", Outputs: 1}); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("programmatic overload: %v, want ErrQueueFull", err)
	}

	// Unblock the engine: every accepted request gets a decision.
	close(gate)
	got := make(map[string]int)
	for i := 0; i < queueDepth+1; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("accepted request failed: %v", r.err)
			}
			got[r.resp.ID] = r.resp.Shard
		case <-time.After(10 * time.Second):
			t.Fatalf("accepted request never answered; got %d of %d", len(got), queueDepth+1)
		}
	}
	if len(got) != queueDepth+1 {
		t.Fatalf("%d distinct decisions, want %d", len(got), queueDepth+1)
	}
	if placed := s.Engine().Stats().Placed; placed != queueDepth+1 {
		t.Fatalf("engine placed %d, want %d — accepted requests must never be dropped", placed, queueDepth+1)
	}
	if v, ok := scrapeMetric(t, ts, `optchain_serve_lines_total{outcome="rejected"}`); !ok || v != 2 {
		t.Fatalf("rejected counter %g, want 2", v)
	}
	// The pin was placed by its caller; the four it held up were queued.
	for path, want := range map[string]float64{"caller": 1, "queued": queueDepth} {
		if v, ok := scrapeMetric(t, ts, `optchain_serve_units_total{path="`+path+`"}`); !ok || v != want {
			t.Errorf("%s units %g, want %g", path, v, want)
		}
	}
}

// TestQueuedContextExpiry: a request whose context dies while queued is
// dropped before placement and answered with the context error.
func TestQueuedContextExpiry(t *testing.T) {
	s, _, entered, gate := newGatedServer(t, serve.Config{QueueDepth: 8, MaxBatch: 1})
	done := make(chan error, 1)
	go func() {
		_, err := s.Place(context.Background(), serve.Request{ID: "pin", Outputs: 1})
		done <- err
	}()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatcher never reached the engine")
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Place(expired, serve.Request{ID: "late", Outputs: 1}); !errors.Is(err, serve.ErrBadRequest) || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("expired request: %v, want ErrBadRequest wrapping context cancellation", err)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("pinned request: %v", err)
	}
	waitPlaced(t, s, 1)
	if placed := s.Engine().Stats().Placed; placed != 1 {
		t.Fatalf("engine placed %d, want 1 — the expired request must not be placed", placed)
	}
}

// waitQueueDepth polls until the ingest queue holds want requests.
func waitQueueDepth(t *testing.T, s *serve.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		depth, _ := s.Queue()
		if depth >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", depth, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitPlaced polls until the engine has placed at least want transactions
// and the queue has drained.
func waitPlaced(t *testing.T, s *serve.Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		depth, _ := s.Queue()
		if depth == 0 && s.Engine().Stats().Placed >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never drained to %d placements", want)
		}
		time.Sleep(time.Millisecond)
	}
}
