package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"optchain"
	"optchain/experiment"
	"optchain/internal/core"
	"optchain/internal/des"
	"optchain/internal/placement"
	"optchain/internal/workload"
	"optchain/serve"
)

// This file is the traced run's extra slices: each calls one layer's public
// functions from outside, with the same inputs the end-to-end phases use,
// once per round. Harness memory here (prebuilt requests, the deduplicated
// node arena) exists only in the traced run; end-to-end metrics never come
// from it.

// layerInputs is what the layer slices need beyond inputs.
type layerInputs struct {
	nodes, offs []int32           // deduplicated inputs of the place stream
	inproc      []client          // who calls Server.Place: the rpc clients, or own streams on bulk shapes
	reqs        [][]serve.Request // their requests, prebuilt
	lines       [][]byte          // every gateway request line, for the codec slice
	decoded     []serve.Request
}

func (r *runner) setupLayers() error {
	lx := &layerInputs{inproc: r.in.gateway}
	lx.nodes, lx.offs = r.in.st.nodes()
	if !r.w.rpc {
		// Server.Place blocks for its decision, so in-process callers can
		// only be concurrent on streams of their own.
		lx.inproc = nil
		n := runtime.NumCPU()
		for c := 0; c < n; c++ {
			cl, err := newClient(r.w, r.seed, c, serveLines/n)
			if err != nil {
				return err
			}
			lx.inproc = append(lx.inproc, cl)
		}
	}
	for _, cl := range lx.inproc {
		reqs := make([]serve.Request, cl.st.len())
		for i := range reqs {
			reqs[i].Outputs = int(cl.st.outs[i])
			if r.w.shape == named {
				reqs[i].ID = cl.prefix + strconv.Itoa(i)
				for _, in := range cl.st.in(i) {
					reqs[i].Parents = append(reqs[i].Parents, cl.prefix+strconv.Itoa(in))
				}
			}
		}
		lx.reqs = append(lx.reqs, reqs)
	}
	for _, cl := range r.in.gateway {
		lx.lines = append(lx.lines, bytes.Split(bytes.TrimSuffix(cl.post.buf, []byte{'\n'}), []byte{'\n'})...)
	}
	lx.decoded = make([]serve.Request, len(lx.lines))
	r.lx = lx
	return nil
}

func (r *runner) layers() error {
	// The same place pass without spans: the tracing overhead.
	runtime.GC()
	if _, err := r.placePass("place.untraced", "place_untraced_s", nil); err != nil {
		return err
	}
	runtime.GC()
	eng, err := r.placePass("engine.parallel", "parallel_s", r.tb, optchain.WithParallelism(runtime.NumCPU()))
	if err != nil {
		return err
	}
	st := eng.Stats()
	r.exactly("engine.parallel_cross_fraction", float64(st.Cross)/float64(st.Placed))
	eng = nil

	if err := r.placeOne(); err != nil {
		return err
	}
	r.coreReplay()
	if err := r.generate(); err != nil {
		return err
	}
	if err := r.inproc(); err != nil {
		return err
	}
	if err := r.handler(); err != nil {
		return err
	}
	r.codec()
	res, err := r.simulate("sim.hash", "sim_hash_s", "OmniLedger")
	if err != nil {
		return err
	}
	r.pooled("sim.hash_cross_fraction", res.CrossFraction)
	r.pooled("sim.hash_confirm_avg_s", res.AvgLatency)
	if err := r.kernel(); err != nil {
		return err
	}
	return r.sweep()
}

// timed runs fn as one spanned, timed slice after a collection: a call
// that cannot be timed in pieces.
func (r *runner) timed(name string, fn func()) float64 {
	runtime.GC()
	sp := r.tb.begin(name, r.roundSpan, r.round)
	t0 := time.Now()
	fn()
	secs := time.Since(t0).Seconds()
	sp.end()
	return secs
}

// timedLoop runs body over [0, n) as one spanned slice after a collection,
// seg iterations to a timed segment, and records it under sample.
func (r *runner) timedLoop(span, sample string, n, seg int, body func(lo, hi int)) {
	runtime.GC()
	sp := r.tb.begin(span, r.roundSpan, r.round)
	r.lap.start()
	for lo := 0; lo < n; lo += seg {
		body(lo, min(lo+seg, n))
		r.lap.mark()
	}
	sp.end()
	r.record(sample, r.lap.v)
}

// placeOne places the served prefix through Engine.Place, one call per
// transaction: the engine's share of an rpc request.
func (r *runner) placeOne() error {
	eng, err := newEngine(serveLines)
	if err != nil {
		return err
	}
	bad := 0
	r.timedLoop("engine.Place", "place_one_s", serveLines, serveLines/postSegs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s, err := eng.Place(optchain.StreamTx{Inputs: r.in.st.in(i), Outputs: int(r.in.st.outs[i])})
			bad += btoi(err != nil || s != int(r.in.ref[i]))
		}
	})
	r.check("engine.Place", serveLines, bad)
	return nil
}

// coreReplay drives the core and the baseline placers directly with the
// deduplicated inputs the Engine would hand them: the T2S index replaying
// the reference decisions, the full OptChain placer deciding for itself
// (and so checked against the reference), and the two bookkeeping floors.
func (r *runner) coreReplay() {
	lx, outs := r.lx, r.in.st.outs
	in := func(u int) []int32 { return lx.nodes[lx.offs[u]:lx.offs[u+1]] }
	outCounts := func(v int32) int { return int(outs[v]) }

	asn := placement.NewAssignment(shards, placeTxs)
	idx := core.NewT2SIndex(core.DefaultAlpha, core.DefaultTruncate, asn, placeTxs)
	idx.SetNormalize(false)
	idx.SetOutCounts(outCounts)
	r.timedLoop("core.T2SIndex", "core_t2s_s", placeTxs, segTxs, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			idx.Prepare(int32(u), in(u))
			s := int(r.in.ref[u])
			idx.Commit(int32(u), s)
			asn.Place(int32(u), s)
		}
	})

	p := core.NewOptChain(core.OptChainConfig{K: shards, N: placeTxs})
	p.Scores().SetOutCounts(outCounts)
	r.timedLoop("core.OptChainPlacer", "core_optchain_s", placeTxs, segTxs, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			p.Place(int32(u), in(u))
		}
	})
	bad := 0
	for u := 0; u < placeTxs; u++ {
		bad += btoi(p.Assignment().ShardOf(int32(u)) != int(r.in.ref[u]))
	}
	r.check("core", placeTxs, bad)
	r.exactly("core.slab_entries_per_tx", float64(p.Scores().SlabLen())/placeTxs)

	for _, pl := range []placement.Placer{
		placement.NewRandom(shards, placeTxs),
		placement.NewGreedy(shards, placeTxs, core.DefaultCapacityEps),
	} {
		r.timedLoop("placement."+pl.Name(), "placement_"+pl.Name()+"_s", placeTxs, segTxs, func(lo, hi int) {
			for u := lo; u < hi; u++ {
				pl.Place(int32(u), in(u))
			}
		})
	}
}

// generate drains the workload source alone, at the simulator's length.
func (r *runner) generate() error {
	src, err := workload.New(r.w.spec, workload.Params{N: simTxs, Seed: r.seed, Shards: shards})
	if err != nil {
		return err
	}
	defer workload.Close(src)
	n := 0
	var tx workload.Tx
	r.timedLoop("workload.Next", "gen_s", simTxs, simTxs/postSegs, func(lo, hi int) {
		for i := lo; i < hi && src.Next(&tx); i++ {
			n++
		}
	})
	r.check("workload", simTxs, simTxs-n)
	return nil
}

// inproc calls Server.Place from one goroutine per client: the queue, the
// coalescing and the resolve step with no HTTP and no JSON. A client of a
// positional shape names its inputs by the indexes earlier responses gave
// it, as a wallet would.
func (r *runner) inproc() error {
	lx := r.lx
	total := 0
	for _, reqs := range lx.reqs {
		total += len(reqs)
	}
	eng, err := newEngine(total)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Engine: eng})
	if err != nil {
		return err
	}
	got := make([][]serve.Response, len(lx.reqs))
	errs := make([]int, len(lx.reqs))
	clientLaps := make([]*laps, len(lx.reqs))
	for c, reqs := range lx.reqs {
		got[c] = make([]serve.Response, len(reqs))
		clientLaps[c] = newLaps(postSegs)
	}
	ctx := context.Background()
	runtime.GC()
	sp := r.tb.begin("serve.Server.Place", r.roundSpan, r.round)
	var wg sync.WaitGroup
	for c, reqs := range lx.reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, lap := lx.inproc[c].st, clientLaps[c]
			var abs []int
			lap.start()
			for i, req := range reqs {
				if r.w.shape == positional {
					abs = abs[:0]
					for _, in := range st.in(i) {
						abs = append(abs, got[c][in].Index)
					}
					req.Inputs = abs
				}
				res, err := srv.Place(ctx, req)
				got[c][i] = res
				errs[c] += btoi(err != nil)
				if lastOfSeg(i, len(reqs)) {
					lap.mark()
				}
			}
		}()
	}
	wg.Wait()
	sp.end()
	var segs []float64
	for _, lap := range clientLaps {
		segs = append(segs, lap.v...)
	}
	r.record("inproc_s", segs)
	seen, bad := make([]bool, total), 0
	for c, res := range got {
		bad += errs[c]
		for _, d := range res {
			ok := d.Index >= 0 && d.Index < total && !seen[d.Index] && d.Shard >= 0 && d.Shard < shards
			if ok {
				seen[d.Index] = true
			}
			bad += btoi(!ok)
		}
	}
	r.check("serve.Place", total, min(bad, total))
	r.once["inproc_lines"] = float64(total)
	return srv.Close(ctx)
}

// recorder is the in-memory http.ResponseWriter the handler slice writes
// to: the response body lands in the caller's buffer.
type recorder struct {
	hdr  http.Header
	code int
	buf  []byte
}

func (w *recorder) Header() http.Header { return w.hdr }
func (w *recorder) Flush()              {}
func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *recorder) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func handlerPoster(h http.Handler) poster {
	rec := &recorder{hdr: make(http.Header)}
	return func(body, resp []byte) ([]byte, int, error) {
		req, err := http.NewRequest(http.MethodPost, "http://gateway/v1/place", bytes.NewReader(body))
		if err != nil {
			return resp, 0, err
		}
		rec.code, rec.buf = 0, resp
		h.ServeHTTP(rec, req)
		return rec.buf, rec.code, nil
	}
}

// handler repeats the serve slice against Handler().ServeHTTP with the
// bodies and the responses in memory: the gateway without its transport.
func (r *runner) handler() error {
	eng, err := newEngine(r.in.gatewayLines())
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{Engine: eng})
	if err != nil {
		return err
	}
	h := srv.Handler()
	posters := make([]poster, len(r.in.gateway))
	for c := range posters {
		posters[c] = handlerPoster(h)
	}
	out := r.driveGateway("serve.Handler", posters)
	r.recordGateway("handler_s", "", out)
	r.check("serve.Handler", r.in.gatewayLines(), r.verifyServed(out))
	return srv.Close(context.Background())
}

// codec times the encoding/json calls the handler makes per line, alone:
// one Unmarshal into serve.Request, one Encode of a decision line.
func (r *runner) codec() {
	lx, bad := r.lx, 0
	n := len(lx.lines)
	r.timedLoop("json.Unmarshal", "json_decode_s", n, n/postSegs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			lx.decoded[i] = serve.Request{}
			bad += btoi(json.Unmarshal(lx.lines[i], &lx.decoded[i]) != nil)
		}
	})
	type line struct {
		ID    string `json:"id,omitempty"`
		Index int    `json:"index"`
		Shard int    `json:"shard"`
		Error string `json:"error,omitempty"`
		Code  int    `json:"code,omitempty"`
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	r.timedLoop("json.Encode", "json_encode_s", n, n/postSegs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			buf.Reset()
			bad += btoi(enc.Encode(line{ID: lx.decoded[i].ID, Index: i, Shard: i % shards}) != nil)
		}
	})
	r.check("codec", 2*len(lx.lines), bad)
}

// kernel runs the event kernel alone: events through a heap that holds
// about ten thousand.
func (r *runner) kernel() error {
	const pending, total = 10_000, 250_000
	s := des.New()
	left := total - pending
	var tick func(*des.Simulator)
	tick = func(sim *des.Simulator) {
		if left > 0 {
			left--
			sim.Schedule(time.Duration(1+left%97), "tick", tick)
		}
	}
	for i := 0; i < pending; i++ {
		s.Schedule(time.Duration(i%97), "tick", tick)
	}
	var err error
	secs := r.timed("des.Run", func() { err = s.Run() })
	r.sample("des_s_per_event", secs/float64(s.Executed()))
	r.check("des", total, total-int(s.Executed()))
	return err
}

// sweep runs a fixed 2 strategies x 2 rates sweep at 20k transactions
// through the experiment Runner, cold and then from its row cache.
func (r *runner) sweep() error {
	dir := filepath.Join(r.scratch, "rows")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	sw := experiment.Sweep{
		Name: "benchmark", Strategies: []string{strategy, "OmniLedger"}, Rates: []float64{2000, 6000},
		Shards: []int{shards}, Workloads: []string{r.w.spec}, Streaming: true,
	}
	for _, name := range []string{"sweep_s", "cached_s"} {
		run := experiment.NewRunner(experiment.Params{N: 20_000, Seed: r.seed, Workers: runtime.NumCPU(), CacheDir: dir})
		cells, bad := 0, 0
		var err error
		secs := r.timed("experiment."+name, func() {
			for row, rerr := range run.Stream(context.Background(), sw) {
				if rerr != nil {
					err = rerr
					return
				}
				cells++
				bad += btoi(row.Committed != row.Total)
			}
		})
		if err = errors.Join(err, run.Close()); err != nil {
			return fmt.Errorf("experiment sweep: %w", err)
		}
		r.sample(name, secs/float64(cells))
		r.check("experiment", cells, bad)
	}
	return os.RemoveAll(dir)
}

// serveLayer reads the server's own view of the serve slice just driven
// and has it save its state.
func (r *runner) serveLayer(g *gateway, c *http.Client, out []served) error {
	const batches, txs, rejected = "optchain_serve_batches_total", "optchain_serve_batched_txs_total",
		`optchain_serve_lines_total{outcome="rejected"}`
	m, err := scrape(c, g.url, batches, txs, rejected)
	if err != nil {
		return err
	}
	lines := float64(r.in.gatewayLines())
	r.sample("serve.batch_mean_txs", m[txs]/m[batches])
	r.sample("serve.rejected_share", m[rejected]/lines)
	r.sample("serve.server_p50_ms", g.srv.LatencyQuantile(0.5)*1e3)
	r.sample("serve.server_p99_ms", g.srv.LatencyQuantile(0.99)*1e3)
	wire := 0
	for i, cl := range r.in.gateway {
		wire += len(cl.post.buf) + len(out[i].resp)
	}
	r.sample("serve.wire_bytes_per_line", float64(wire)/lines)
	if !r.w.rpc {
		// Between rpc clients, which line gets which index, and so which
		// shard, depends on how they interleave: the digits vary by slice.
		r.exactly("serve.wire_bytes_per_line", float64(wire)/lines)
	}

	var code int
	r.sample("state_save_s", r.timed("POST /v1/snapshot", func() {
		_, code, err = httpPoster(c, g.url+"/v1/snapshot")(nil, nil)
	}))
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("POST /v1/snapshot: status %d: %v", code, err)
	}
	file, err := os.Stat(r.statePath())
	if err != nil {
		return err
	}
	var engineSnap bytes.Buffer
	if err := g.srv.Engine().WriteSnapshot(&engineSnap); err != nil {
		return err
	}
	r.exactly("serve.idmap_bytes_per_tx", float64(file.Size()-int64(engineSnap.Len()))/lines)
	return nil
}

func (r *runner) statePath() string { return filepath.Join(r.scratch, "state.bin") }

// stateLoad restarts a server from the state file the stopped gateway
// left and checks that it resumes at the right stream position.
func (r *runner) stateLoad(lines int) error {
	defer os.Remove(r.statePath())
	eng, err := newEngine(lines)
	if err != nil {
		return err
	}
	var srv *serve.Server
	r.sample("state_load_s", r.timed("serve.New(restore)", func() {
		srv, err = serve.New(serve.Config{Engine: eng, StatePath: r.statePath(), SnapshotEvery: -1})
	}))
	if err != nil {
		return err
	}
	r.check("restart", 1, btoi(eng.Stats().Placed != lines))
	return srv.Close(context.Background())
}
