// Command servecheck is the serve-smoke recipe behind `make serve-smoke`
// (wired into `make ci`), in the same spirit as internal/docscheck: it
// exercises the HTTP placement gateway end to end over a real TCP listener
// and fails the build if any step regresses. One run proves the whole
// serving contract:
//
//  1. a reference engine places the full workload stream directly;
//  2. a server places the first half over HTTP — every input referenced
//     through its parent id, so requests exercise the id map — and each
//     decision must match the reference bit for bit;
//  3. /metrics is scraped and sanity-checked (placed count, request count);
//  4. the server shuts down, writing its final state snapshot;
//  5. a fresh server restores the snapshot and places the second half —
//     whose parents name first-half ids — again matching the reference,
//     proving decision continuity across the restart;
//  6. a third server places the whole stream again, one line per POST over
//     one keep-alive connection: each decision must match the reference,
//     each answer must come in one framed write (Content-Length, not
//     chunked), and every unit must have been placed by its caller.
//
// It prints the tail of the bulk admission-to-decision latency histogram
// (p50, p95, p99) and the one-line round trips (p50, p99), so CI logs carry
// the serving-path numbers quoted in PERFORMANCE.md.
//
// Usage:
//
//	servecheck [-n N] [-shards K] [-workload SPEC] [-seed S]
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"optchain"
	"optchain/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "servecheck: %v\n", err)
		os.Exit(1)
	}
}

// resultLine mirrors the wire shape of one /v1/place response line.
type resultLine struct {
	ID    string `json:"id"`
	Index int    `json:"index"`
	Shard int    `json:"shard"`
	Error string `json:"error"`
}

func run() error {
	var (
		n      = flag.Int("n", 3000, "transactions to place")
		shards = flag.Int("shards", 8, "shard count")
		spec   = flag.String("workload", "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.15", "workload spec")
		seed   = flag.Int64("seed", 11, "workload seed")
	)
	flag.Parse()
	half := *n / 2

	d, err := optchain.MaterializeWorkload(*spec, optchain.WorkloadParams{N: *n, Seed: *seed, Shards: *shards})
	if err != nil {
		return fmt.Errorf("materialize %s: %w", *spec, err)
	}
	var txs []optchain.StreamTx
	for tx := range optchain.DatasetStream(d) {
		ins := make([]int, len(tx.Inputs))
		copy(ins, tx.Inputs)
		txs = append(txs, optchain.StreamTx{Inputs: ins, Outputs: tx.Outputs})
	}
	if len(txs) != *n {
		return fmt.Errorf("materialized %d txs, want %d", len(txs), *n)
	}

	// Uninterrupted reference run: the decisions both server generations
	// must reproduce.
	ref, err := newEngine(*n, *shards)
	if err != nil {
		return err
	}
	want, err := ref.PlaceBatch(txs, nil)
	if err != nil {
		return fmt.Errorf("reference run: %w", err)
	}

	dir, err := os.MkdirTemp(".", ".servecheck-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	statePath := filepath.Join(dir, "state.bin")

	// Generation A: cold start, place the first half, snapshot on close.
	engA, err := newEngine(*n, *shards)
	if err != nil {
		return err
	}
	srvA, err := serve.New(serve.Config{Engine: engA, StatePath: statePath, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	gaA, err := startHTTP(srvA)
	if err != nil {
		return err
	}
	if err := placeRange(gaA.url, txs, 0, half, want); err != nil {
		return fmt.Errorf("generation A: %w", err)
	}
	metrics, err := scrape(gaA.url)
	if err != nil {
		return err
	}
	for series, wantV := range map[string]float64{
		"optchain_engine_placed_total":                  float64(half),
		`optchain_serve_lines_total{outcome="placed"}`:  float64(half),
		`optchain_serve_lines_total{outcome="invalid"}`: 0,
		"optchain_serve_place_latency_seconds_count":    float64(half),
	} {
		if got, ok := metrics[series]; !ok || got != wantV {
			return fmt.Errorf("/metrics %s = %g (present=%v), want %g", series, got, ok, wantV)
		}
	}
	p50, p95, p99 := srvA.LatencyQuantile(0.50), srvA.LatencyQuantile(0.95), srvA.LatencyQuantile(0.99)
	if err := gaA.stop(srvA); err != nil {
		return fmt.Errorf("generation A shutdown: %w", err)
	}
	if _, err := os.Stat(statePath); err != nil {
		return fmt.Errorf("close wrote no state file: %w", err)
	}

	// Generation B: restore the snapshot, place the second half. Parents
	// name first-half ids, so this also proves the id map survived.
	engB, err := newEngine(*n, *shards)
	if err != nil {
		return err
	}
	srvB, err := serve.New(serve.Config{Engine: engB, StatePath: statePath, SnapshotEvery: -1})
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if placed := engB.Stats().Placed; placed != half {
		return fmt.Errorf("restored engine has %d placements, want %d", placed, half)
	}
	gaB, err := startHTTP(srvB)
	if err != nil {
		return err
	}
	if err := placeRange(gaB.url, txs, half, *n, want); err != nil {
		return fmt.Errorf("generation B (restored): %w", err)
	}
	if err := gaB.stop(srvB); err != nil {
		return fmt.Errorf("generation B shutdown: %w", err)
	}

	refStats, bStats := ref.Stats(), engB.Stats()
	if refStats.Placed != bStats.Placed || refStats.Cross != bStats.Cross {
		return fmt.Errorf("final stats diverge: reference placed=%d cross=%d, restored placed=%d cross=%d",
			refStats.Placed, refStats.Cross, bStats.Placed, bStats.Cross)
	}

	// Generation C: the whole stream again, one line per POST.
	engC, err := newEngine(*n, *shards)
	if err != nil {
		return err
	}
	srvC, err := serve.New(serve.Config{Engine: engC})
	if err != nil {
		return err
	}
	gaC, err := startHTTP(srvC)
	if err != nil {
		return err
	}
	rtts, err := placeRPC(gaC.url, txs, want)
	if err != nil {
		return fmt.Errorf("rpc: %w", err)
	}
	if metrics, err = scrape(gaC.url); err != nil {
		return err
	}
	for series, wantV := range map[string]float64{
		`optchain_serve_lines_total{outcome="placed"}`: float64(*n),
		`optchain_serve_units_total{path="caller"}`:    float64(*n),
		`optchain_serve_units_total{path="queued"}`:    0,
	} {
		if got, ok := metrics[series]; !ok || got != wantV {
			return fmt.Errorf("rpc /metrics %s = %g (present=%v), want %g", series, got, ok, wantV)
		}
	}
	if err := gaC.stop(srvC); err != nil {
		return fmt.Errorf("rpc shutdown: %w", err)
	}

	fmt.Printf("servecheck OK: %d txs over HTTP (%s, %d shards), restart restored %d placements, cross fraction %.3f; %d one-line POSTs over one connection\n",
		*n, *spec, *shards, half, bStats.CrossFraction, *n)
	fmt.Printf("servecheck latency (bulk, admission to decision): p50 %s  p95 %s  p99 %s\n",
		fmtSeconds(p50), fmtSeconds(p95), fmtSeconds(p99))
	fmt.Printf("servecheck latency (rpc, round trip):             p50 %s  p99 %s\n",
		rtts[len(rtts)/2].Round(time.Microsecond), rtts[len(rtts)*99/100].Round(time.Microsecond))
	return nil
}

func newEngine(n, shards int) (*optchain.Engine, error) {
	return optchain.New(
		optchain.WithShards(shards),
		optchain.WithStrategy("OptChain"),
		optchain.WithStreamCapacity(n),
		optchain.WithSeed(1),
	)
}

// gateway is one server generation's HTTP front: a real TCP listener so the
// smoke covers the same path optchain-serve runs in production.
type gateway struct {
	url  string
	http *http.Server
	errc chan error
}

func startHTTP(s *serve.Server) (*gateway, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &gateway{
		url:  "http://" + ln.Addr().String(),
		http: &http.Server{Handler: s.Handler()},
		errc: make(chan error, 1),
	}
	go func() {
		g.errc <- g.http.Serve(ln)
	}()
	return g, nil
}

// stop shuts the HTTP front down, joins its serve loop, and closes the
// placement server (which writes the final snapshot).
func (g *gateway) stop(s *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := g.http.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-g.errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return s.Close(ctx)
}

// requestLine renders txs[i] as a request line with every input referenced
// through its parent id.
func requestLine(txs []optchain.StreamTx, i int) ([]byte, error) {
	req := serve.Request{ID: "t" + strconv.Itoa(i), Outputs: txs[i].Outputs}
	for _, in := range txs[i].Inputs {
		req.Parents = append(req.Parents, "t"+strconv.Itoa(in))
	}
	line, err := json.Marshal(req)
	return append(line, '\n'), err
}

// checkDecision compares the answer for stream position pos with the
// reference decisions.
func checkDecision(r resultLine, pos int, want []int) error {
	if r.Error != "" {
		return fmt.Errorf("tx %d rejected: %s", pos, r.Error)
	}
	if r.Index != pos || r.Shard != want[pos] {
		return fmt.Errorf("tx %d placed (index %d, shard %d), reference says (index %d, shard %d) — decisions diverged",
			pos, r.Index, r.Shard, pos, want[pos])
	}
	return nil
}

// placeRange posts txs[from:to] as one JSONL stream and checks each
// response line against the reference decisions.
func placeRange(url string, txs []optchain.StreamTx, from, to int, want []int) error {
	var body bytes.Buffer
	for i := from; i < to; i++ {
		line, err := requestLine(txs, i)
		if err != nil {
			return err
		}
		body.Write(line)
	}
	resp, err := http.Post(url+"/v1/place", "application/x-ndjson", &body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/v1/place: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	pos := from
	for sc.Scan() {
		var r resultLine
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return fmt.Errorf("response line %d: %w", pos-from, err)
		}
		if err := checkDecision(r, pos, want); err != nil {
			return err
		}
		pos++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if pos != to {
		return fmt.Errorf("answered %d lines, want %d", pos-from, to-from)
	}
	return nil
}

// placeRPC posts txs one line per request over one keep-alive connection,
// checks each answer against the reference and that it came in one framed
// write, and returns the round trips, sorted.
func placeRPC(url string, txs []optchain.StreamTx, want []int) ([]time.Duration, error) {
	var dials atomic.Int64
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		var d net.Dialer
		return d.DialContext(ctx, network, addr)
	}}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	rtts := make([]time.Duration, len(txs))
	for i := range txs {
		line, err := requestLine(txs, i)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		resp, err := client.Post(url+"/v1/place", "application/x-ndjson", bytes.NewReader(line))
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		rtts[i] = time.Since(t0)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("tx %d: status %d", i, resp.StatusCode)
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			return nil, fmt.Errorf("tx %d: answered with Content-Length %d and Transfer-Encoding %v, want one framed write of %d bytes",
				i, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		var r resultLine
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("tx %d: %w", i, err)
		}
		if err := checkDecision(r, i, want); err != nil {
			return nil, err
		}
	}
	if d := dials.Load(); d != 1 {
		return nil, fmt.Errorf("%d POSTs took %d connections, want one kept alive", len(txs), d)
	}
	slices.Sort(rtts)
	return rtts, nil
}

// scrape fetches /metrics and parses every series into a map keyed by the
// full series name, labels included (e.g. `foo_total{outcome="placed"}`).
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		out[name] = f
	}
	return out, sc.Err()
}

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
