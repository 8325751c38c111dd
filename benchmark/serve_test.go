package main

import (
	"bytes"
	"net/http"
	"testing"

	"optchain"
)

// smallInputs builds inputs the way setup does, at a size a test can
// afford: n transactions, the first lines of them sent to the gateway.
func smallInputs(t *testing.T, w workloadDef, n, lines int) *inputs {
	t.Helper()
	in := &inputs{st: testStream(t, w.spec, n)}
	eng, err := newEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := eng.PlaceBatch(in.st.view(make([]optchain.StreamTx, n), 0, n), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range dst {
		in.ref = append(in.ref, uint8(s))
	}
	if !w.rpc {
		in.gateway = []client{{st: in.st, prefix: "t", post: encodeBodies(in.st, w.shape, "t", lines, bulkLines)}}
		return in
	}
	for c := 0; c < 2; c++ {
		cl, err := newClient(w, 7, c, lines)
		if err != nil {
			t.Fatal(err)
		}
		cl.post = encodeBodies(cl.st, w.shape, cl.prefix, lines, 1)
		in.gateway = append(in.gateway, cl)
	}
	return in
}

// Every workload's serve slice, against a real gateway on loopback and
// against the in-memory handler: all lines verify, and a wrong, a refused
// and a missing line are each counted.
func TestServeSliceVerifiesEveryLine(t *testing.T) {
	for _, w := range workloads {
		r := &runner{w: w, in: smallInputs(t, w, 4000, 2500), samples: map[string][][]float64{}, once: map[string]float64{}}
		lines := r.in.gatewayLines()
		g, err := startGateway(lines, "")
		if err != nil {
			t.Fatal(err)
		}
		hc := &http.Client{}
		var overHTTP, inMemory []poster
		for range r.in.gateway {
			overHTTP = append(overHTTP, httpPoster(hc, g.url+"/v1/place"))
		}
		out := r.driveGateway("serve", overHTTP)
		if bad := r.verifyServed(out); bad != 0 {
			t.Errorf("%s over HTTP: %d of %d lines failed: %.200q", w.name, bad, lines, out[0].resp)
		}
		r.recordServe(out)
		posts := r.in.gateway[0].post.count()
		if n := int(r.once["serve_samples"]); n != posts*len(r.in.gateway) {
			t.Errorf("%s: %d latency samples", w.name, n)
		}
		segs := min(postSegs, posts) * len(r.in.gateway)
		if a, b := len(r.samples["serve_s"][0]), len(r.samples["serve_p50_ms"][0]); a != segs || b != segs {
			t.Errorf("%s: %d timed segments and %d medians, want %d", w.name, a, b, segs)
		}
		m, err := scrape(hc, g.url, "optchain_engine_placed_total")
		if err != nil || int(m["optchain_engine_placed_total"]) != lines {
			t.Errorf("%s: scraped %v, %v", w.name, m, err)
		}
		hc.CloseIdleConnections()
		if err := g.stop(); err != nil {
			t.Fatal(err)
		}

		g, err = startGateway(lines, "")
		if err != nil {
			t.Fatal(err)
		}
		for range r.in.gateway {
			inMemory = append(inMemory, handlerPoster(g.srv.Handler()))
		}
		out = r.driveGateway("serve.Handler", inMemory)
		if bad := r.verifyServed(out); bad != 0 {
			t.Errorf("%s in memory: %d of %d lines failed", w.name, bad, lines)
		}
		if err := g.stop(); err != nil {
			t.Fatal(err)
		}

		// A decision changed to another valid shard, a line refused, and a
		// response cut short by one line.
		resp := out[0].resp
		at := bytes.Index(resp, []byte(`"shard":`)) + len(`"shard":`)
		was := resp[at]
		resp[at] = '0' + (was-'0'+1)%10
		if bad := r.verifyServed(out); !w.rpc && bad != 1 {
			t.Errorf("%s: a wrong shard counted as %d failures", w.name, bad)
		}
		resp[at] = was
		first := bytes.IndexByte(resp, '\n')
		out[0].resp = append([]byte(`{"index":0,"shard":0,"error":"serve: ingest queue full","code":429}`), resp[first:]...)
		if bad := r.verifyServed(out); bad != 1 {
			t.Errorf("%s: a refused line counted as %d failures", w.name, bad)
		}
		out[0].resp = resp[:bytes.LastIndexByte(resp[:len(resp)-1], '\n')+1]
		if bad := r.verifyServed(out); bad != 1 {
			t.Errorf("%s: a missing line counted as %d failures", w.name, bad)
		}
	}
}
