package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Handler returns the server's HTTP API:
//
//	POST /v1/place    — placement requests, one JSON object per line
//	                    (JSON-lines); the response carries one decision
//	                    line per request, in order, a window at a time;
//	                    a body answered in one window carries a
//	                    Content-Length. A single-line request maps its
//	                    outcome onto the HTTP status (429 with
//	                    Retry-After on queue-full, 400, 503, 504).
//	GET  /metrics     — Prometheus text exposition
//	GET  /healthz     — liveness: 200 while serving, 503 after Close
//	POST /v1/snapshot — write a state snapshot now (requires StatePath)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/place", s.handlePlace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/snapshot", s.handleSnapshot)
	return mux
}

// errCode maps a serve error onto its HTTP-equivalent status code.
func errCode(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrServerClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadConfig):
		return http.StatusConflict
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadRequest
	}
}

// scratch is what one /v1/place request works in: the body's line reader,
// the window being decoded, the window's unit when it has to queue, and the
// response buffer. Pooled, so a request allocates none of it.
type scratch struct {
	lr  lineReader
	win window
	u   *unit
	out []byte
}

var scratchPool = sync.Pool{New: func() any { return &scratch{u: newUnit()} }}

// textPlain is the Content-Type of a /v1/place answer sent in one framed
// write: what net/http sniffs from decision lines when it sets the type
// itself. It goes into the header map as is, so a request allocates no
// value for it; every request shares it, so nothing may change it.
var textPlain = []string{"text/plain; charset=utf-8"}

// handlePlace streams placement decisions for a JSON-lines request body.
// Lines are decoded in order into windows of up to MaxBatch; each window is
// admitted and placed as one unit and answered with one write, so a single
// connection feeds full batches to the engine. A window the body goes on
// after is flushed at once, so a client that waits for a window's answers
// before it sends more gets them. The last window, read once the body has
// ended, is not flushed: net/http sends it as the handler returns, and when
// it is the body's only write it goes out with a Content-Length instead of
// chunked. Admission rejections (queue full) fail only the lines the queue
// had no room for, the tail of the window — the client retries them after
// Retry-After — while body-level defects (oversized line, malformed JSON)
// fail that line with code 400.
func (s *Server) handlePlace(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	sc := scratchPool.Get().(*scratch)
	sc.lr.reset(r.Body)
	win := &sc.win
	flusher, _ := w.(http.Flusher)
	var (
		total     int
		wrote     bool
		duplex    bool
		abandoned bool
		status    = http.StatusOK
	)
	defer func() {
		s.met.http(status)
		if !abandoned {
			sc.lr.reset(nil)
			win.reset()
			scratchPool.Put(sc)
		}
	}()
	// answer places the window and writes its response lines. It reports
	// false when the request is over: the client is gone, or the wait for
	// the dispatcher was abandoned and the window is still in its hands.
	answer := func() bool {
		last := sc.lr.drained()
		if !duplex && sc.lr.err == nil {
			// The HTTP/1 server is half-duplex by default: writing the
			// response aborts the unread request body, truncating long
			// streams mid-line. Placement is a pipeline — decisions stream
			// back while later windows are still arriving — so a body that
			// goes on needs full duplex (a no-op on HTTP/2).
			_ = http.NewResponseController(w).EnableFullDuplex()
			duplex = true
		}
		out, err := sc.out[:0], s.placeWindow(ctx, sc)
		abandoned = err != nil
		for i := range win.reqs {
			res, lineErr := lineResult{ID: win.reqs[i].ID}, err
			if !abandoned {
				lineErr = win.res[i].err
			}
			if lineErr != nil {
				res.Error, res.Code = lineErr.Error(), errCode(lineErr)
				if res.Code == http.StatusTooManyRequests {
					res.RetryAfterMS = s.cfg.RetryAfter.Milliseconds()
				}
			} else {
				res.Index, res.Shard = win.res[i].index, win.res[i].shard
			}
			if total == 1 && res.Code != 0 {
				// A single-request body maps its outcome onto the HTTP status
				// so plain callers need not parse error lines.
				status = res.Code
			}
			out = appendLine(out, res)
		}
		sc.out = out
		if !wrote {
			h := w.Header()
			if last {
				h["Content-Type"] = textPlain
				h.Set("Content-Length", strconv.Itoa(len(out)))
			}
			if status != http.StatusOK {
				if status == http.StatusTooManyRequests {
					h.Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
				}
				w.WriteHeader(status)
			}
			wrote = true
		}
		_, werr := w.Write(out)
		if !last && flusher != nil {
			flusher.Flush()
		}
		if abandoned || werr != nil || ctx.Err() != nil {
			return false
		}
		win.reset()
		return true
	}

	for {
		line, tooLong, ok := sc.lr.next()
		if !ok {
			break
		}
		if !tooLong && skipSpace(line, 0) == len(line) {
			continue
		}
		total++
		var err error
		if tooLong {
			err = fmt.Errorf("longer than %d bytes", maxLineBytes)
		} else {
			err = win.decode(line)
		}
		if err != nil {
			win.fail(fmt.Errorf("bad request line %d: %v", total, err))
			s.met.invalid(1)
		}
		if len(win.reqs) >= s.cfg.MaxBatch && !answer() {
			return
		}
	}
	if err := sc.lr.err; err != io.EOF {
		total++
		win.fail(fmt.Errorf("read body: %v", err))
	}
	if total == 0 {
		status = http.StatusBadRequest
		http.Error(w, "serve: empty request body (want one JSON object per line)", status)
		return
	}
	if len(win.reqs) > 0 {
		answer()
	}
}

// placeWindow gets every line of sc's window its answer in win.res: placed
// by this goroutine on an idle server, else admitted to the queue as one
// unit — the prefix the queue has room for, the lines behind it rejected —
// and awaited. It fails when the wait was abandoned (see await); the
// window then still belongs to the dispatcher and no line of win.res may be
// read.
func (s *Server) placeWindow(ctx context.Context, sc *scratch) error {
	win, t0 := &sc.win, s.clock()
	placed, err := s.placeIdle(ctx, win.reqs, win.res, t0)
	if placed {
		return nil
	}
	admitted := 0
	if err == nil {
		u := sc.u
		u.ctx, u.reqs, u.res, u.t0 = ctx, win.reqs, win.res, t0
		admitted, err = s.enqueue(u)
	}
	rejected := 0
	for i := admitted; i < len(win.res); i++ {
		if o := &win.res[i]; o.err == nil {
			o.err = err
			rejected++
		}
	}
	if errors.Is(err, ErrQueueFull) {
		s.met.reject(rejected)
	}
	if admitted == 0 {
		return nil
	}
	return s.await(ctx, sc.u)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	depth, capacity := s.Queue()
	if err := s.met.writeTo(w, s.eng, depth, capacity); err != nil {
		return
	}
	s.met.http(http.StatusOK)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		http.Error(w, "closed", http.StatusServiceUnavailable)
		s.met.http(http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
	s.met.http(http.StatusOK)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := s.Snapshot(r.Context()); err != nil {
		code := errCode(err)
		http.Error(w, err.Error(), code)
		s.met.http(code)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "snapshot written")
	s.met.http(http.StatusOK)
}

// retryAfterSeconds renders a Retry-After header value, rounding up so a
// sub-second backoff still advertises one second.
func retryAfterSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}
