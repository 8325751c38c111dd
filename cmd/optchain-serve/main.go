// Command optchain-serve runs the placement engine as an HTTP service: a
// bounded ingest queue coalesces concurrent placement requests into engine
// batches, /metrics exposes Prometheus text, and — with -state — the engine
// snapshots its decision state periodically and restores it on restart, so
// a placement router resumes its stream instead of replaying history.
//
// Usage:
//
//	optchain-serve -addr :8080 -shards 16 -strategy OptChain \
//	    -state /var/lib/optchain/state.bin -snapshot-every 30s
//
// Place transactions by POSTing JSON lines to /v1/place:
//
//	{"id":"tx-9","inputs":[3,7],"parents":["tx-4"],"outputs":2}
//
// Each response line carries the transaction's absolute stream index and
// its shard. A full queue answers 429 with Retry-After; SIGINT/SIGTERM
// drains accepted requests and writes a final snapshot before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"optchain"
	"optchain/serve"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("optchain-serve: %v", err)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		shards     = flag.Int("shards", 16, "shard count")
		strategy   = flag.String("strategy", "OptChain", "placement strategy (OptChain, T2S, Greedy, OmniLedger)")
		alpha      = flag.Float64("alpha", 0, "T2S damping factor (0 = engine default)")
		l2sWeight  = flag.Float64("l2s-weight", 0, "L2S weight in temporal fitness (0 = engine default)")
		streamCap  = flag.Int("stream-cap", 1_000_000, "stream capacity hint (sizes columns and, until the stream outgrows it, per-shard budgets)")
		seed       = flag.Int64("seed", 1, "engine seed")
		queue      = flag.Int("queue", serve.DefaultQueueDepth, "ingest queue depth in request lines (admission-control bound)")
		maxBatch   = flag.Int("max-batch", serve.DefaultMaxBatch, "max request lines per engine batch, and per window of a request body")
		retryAfter = flag.Duration("retry-after", serve.DefaultRetryAfter, "backoff advertised on 429 responses")
		statePath  = flag.String("state", "", "state file: restore on start, snapshot periodically and on shutdown")
		snapEvery  = flag.Duration("snapshot-every", serve.DefaultSnapshotEvery, "periodic snapshot cadence (needs -state)")
	)
	flag.Parse()

	opts := []optchain.Option{
		optchain.WithShards(*shards),
		optchain.WithStrategy(*strategy),
		optchain.WithStreamCapacity(*streamCap),
		optchain.WithSeed(*seed),
	}
	// Any value but the 0 that means "default" goes to the engine, which
	// refuses one out of range instead of serving with the default.
	if *alpha != 0 {
		opts = append(opts, optchain.WithAlpha(*alpha))
	}
	if *l2sWeight != 0 {
		opts = append(opts, optchain.WithL2SWeight(*l2sWeight))
	}
	eng, err := optchain.New(opts...)
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Engine:        eng,
		QueueDepth:    *queue,
		MaxBatch:      *maxBatch,
		RetryAfter:    *retryAfter,
		StatePath:     *statePath,
		SnapshotEvery: *snapEvery,
	})
	if err != nil {
		return err
	}
	if placed := eng.Stats().Placed; placed > 0 {
		log.Printf("restored %d placements from %s", placed, *statePath)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	errc := make(chan error, 1)
	go func() {
		errc <- httpSrv.Serve(ln)
	}()
	log.Printf("serving %s placement on http://%s (shards=%d queue=%d max-batch=%d)",
		*strategy, ln.Addr(), *shards, *queue, *maxBatch)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining accepted requests")
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Close(shutCtx); err != nil && !errors.Is(err, serve.ErrServerClosed) {
		return fmt.Errorf("close: %w", err)
	}
	if *statePath != "" {
		log.Printf("state saved to %s (%d placed)", *statePath, eng.Stats().Placed)
	}
	return nil
}
