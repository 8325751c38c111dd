// Package serve promotes the optchain Engine from a library to a
// long-running placement service: an HTTP front end that accepts single and
// batched placement requests, coalesces concurrent requests into
// Engine.PlaceBatch calls through a bounded ingest queue with admission
// control, exposes the engine's metrics plus server-side counters and
// latency histograms in Prometheus text format, and periodically snapshots
// the engine's decision state to disk so a restarted router resumes the
// stream without replaying history.
//
// Architecture (the gateway/ingest split): handler goroutines decode request
// bodies a window of up to MaxBatch lines at a time (codec.go: a scanner for
// the documented request grammar, with encoding/json behind it for every
// other line) and hand each window over as one unit: one admission, one
// answer, one response write. A window the body goes on after is flushed
// at once; the last one goes out as the handler returns, framed with a
// Content-Length when it is the body's only write, so a one-line request
// costs one response write. Exactly one goroutine at a time places on the
// engine, the holder of the engine-owner lock. On an idle server — nothing
// queued, nobody placing — that is the caller itself, an HTTP handler or a
// Place call, with no hand-off at all; otherwise the unit goes into a
// bounded queue and a single dispatcher goroutine drains it, coalescing the
// units that are waiting (up to MaxBatch lines, in admission order) into one
// PlaceBatch call, so batching emerges from concurrency instead of from
// timers. The queue is bounded in lines: a unit is admitted as far as there
// is room, and the lines behind that are rejected immediately (HTTP 429
// with Retry-After) rather than building unbounded backlog; a unit whose
// context expires while queued is dropped before placement and answered
// with the deadline error. Every line the server admits is answered with a
// decision — including during graceful shutdown, which drains the queue
// before the final snapshot.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"optchain"
)

// Typed errors returned by the serve API. Match with errors.Is.
var (
	// ErrBadConfig reports an invalid Config field.
	ErrBadConfig = errors.New("serve: invalid configuration")
	// ErrServerClosed reports an operation on a closed (or closing) server.
	ErrServerClosed = errors.New("serve: server closed")
	// ErrQueueFull reports admission-control rejection: the ingest queue is
	// at capacity. Clients should back off and retry (HTTP 429 with
	// Retry-After).
	ErrQueueFull = errors.New("serve: ingest queue full")
	// ErrBadRequest reports a malformed or unsatisfiable placement request
	// (unknown parent id, duplicate id, input position out of range, an
	// output count outside [0, math.MaxInt32]).
	ErrBadRequest = errors.New("serve: bad request")
	// ErrBadState reports a corrupt, truncated, or incompatible state file.
	ErrBadState = errors.New("serve: invalid state file")
)

// Defaults for zero Config fields.
const (
	// DefaultQueueDepth bounds the ingest queue: request lines beyond it are
	// rejected with ErrQueueFull instead of queuing unbounded backlog.
	DefaultQueueDepth = 4096
	// DefaultMaxBatch caps how many request lines one PlaceBatch call
	// coalesces.
	DefaultMaxBatch = optchain.DefaultBatchSize
	// DefaultRetryAfter is the backoff advertised on 429 responses.
	DefaultRetryAfter = time.Second
	// DefaultSnapshotEvery is the periodic snapshot cadence when StatePath
	// is configured and SnapshotEvery is zero.
	DefaultSnapshotEvery = 30 * time.Second
)

// Config parameterizes New. Engine is required; zero values elsewhere take
// the defaults above.
type Config struct {
	// Engine is the placement engine to serve. The server owns its stream:
	// no other goroutine may Place on it while the server runs.
	Engine *optchain.Engine
	// QueueDepth bounds the ingest queue, in request lines (admission
	// control).
	QueueDepth int
	// MaxBatch caps the request lines coalesced per PlaceBatch call; it is
	// also the window an HTTP body is decoded and answered in.
	MaxBatch int
	// RetryAfter is advertised in the Retry-After header of 429 responses.
	RetryAfter time.Duration
	// StatePath, when non-empty, enables state snapshots: New restores from
	// the file if it exists, the server re-snapshots every SnapshotEvery,
	// and Close writes a final snapshot after draining.
	StatePath string
	// SnapshotEvery is the periodic snapshot cadence (StatePath only).
	// Negative disables the periodic snapshotter, keeping only the
	// on-demand and shutdown snapshots.
	SnapshotEvery time.Duration
}

// Request is one placement request: the outputs the transaction creates and
// the earlier transactions it spends, referenced either by absolute stream
// position (Inputs, as the Engine's own API counts them) or by the
// client-assigned ID of an earlier request (Parents). ID, when set,
// registers this transaction for later Parents references; IDs must be
// unique across the stream.
type Request struct {
	ID      string   `json:"id,omitempty"`
	Inputs  []int    `json:"inputs,omitempty"`
	Parents []string `json:"parents,omitempty"`
	Outputs int      `json:"outputs"`
}

// Response is one placement decision: the transaction's absolute stream
// position (the index later Inputs references use) and its shard.
type Response struct {
	ID    string `json:"id,omitempty"`
	Index int    `json:"index"`
	Shard int    `json:"shard"`
}

// outcome answers one request line: the stream position and shard it was
// placed at, or why it was not.
type outcome struct {
	index int
	shard int
	err   error
}

// unit is what the ingest queue holds: up to MaxBatch request lines admitted
// together — one Place call's request or one window of an HTTP body — with
// one slice for their answers and one signal for the lot. Between its
// admission and that signal a unit belongs to the placer.
type unit struct {
	ctx  context.Context
	reqs []Request
	res  []outcome     // res[i] answers reqs[i]; a line that arrives with err set is not placed
	t0   time.Duration // admission, on the server's clock
	done chan struct{} // buffered 1: the dispatcher never blocks answering
}

func newUnit() *unit { return &unit{done: make(chan struct{}, 1)} }

// unitPool recycles the units of Place calls that had to queue. A unit goes
// back only after its signal was received, so its channel is empty.
var unitPool = sync.Pool{New: func() any { return newUnit() }}

// Server is a running placement service over one Engine. Construct with
// New; serve HTTP with Handler; stop with Close. Methods are safe for
// concurrent use.
type Server struct {
	cfg   Config
	eng   *optchain.Engine
	start time.Time     // zero of the latency clock
	queue chan *unit    // holds at most QueueDepth lines, so never more units than its capacity
	stop  chan struct{} // closed by Close: stop accepting, drain, exit
	dead  chan struct{} // closed when the dispatcher has exited
	wg    sync.WaitGroup
	met   *metrics

	mu       sync.Mutex
	closed   bool // guarded by mu
	panicked any  // guarded by mu — dispatcher panic, re-raised by Close
	queued   int  // guarded by mu — lines admitted to the queue that no batch has taken yet

	// own is the engine-owner lock: its holder is the one goroutine placing
	// on the engine's stream, the dispatcher for queued units or a caller
	// placing its own unit on an idle server. Snapshots take it too, so the
	// state file always captures a unit boundary. Lock order: own, then mu.
	own       sync.Mutex
	ids       map[string]int      // guarded by own — client id -> absolute stream index
	nextIndex int                 // guarded by own — next stream position the engine will assign
	batch     []*unit             // guarded by own — the dispatcher's coalesced units
	txBuf     []optchain.StreamTx // guarded by own — the batch being staged
	inputs    []int               // guarded by own — arena behind the staged Inputs that Parents resolved into
	shardBuf  []int               // guarded by own
}

// New builds and starts a Server: it restores the engine from
// Config.StatePath when the file exists, then launches the dispatcher and
// (when snapshots are enabled) the periodic snapshotter. The caller must
// Close the returned server to stop the goroutines and write the final
// snapshot.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("%w: Config.Engine is required", ErrBadConfig)
	}
	if cfg.QueueDepth < 0 || cfg.MaxBatch < 0 || cfg.RetryAfter < 0 {
		return nil, fmt.Errorf("%w: negative QueueDepth/MaxBatch/RetryAfter", ErrBadConfig)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	s := &Server{
		cfg:   cfg,
		eng:   cfg.Engine,
		start: time.Now(),
		queue: make(chan *unit, cfg.QueueDepth),
		stop:  make(chan struct{}),
		dead:  make(chan struct{}),
		met:   newMetrics(),
		ids:   make(map[string]int),
	}
	if cfg.StatePath != "" {
		if err := s.loadState(cfg.StatePath); err != nil {
			return nil, err
		}
	}
	s.nextIndex = s.eng.Stats().Placed

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(s.dead)
		defer func() {
			if p := recover(); p != nil {
				s.mu.Lock()
				s.panicked = p
				s.mu.Unlock()
			}
		}()
		s.dispatch()
	}()

	if cfg.StatePath != "" && cfg.SnapshotEvery > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				if p := recover(); p != nil {
					s.mu.Lock()
					s.panicked = p
					s.mu.Unlock()
				}
			}()
			s.snapshotLoop()
		}()
	}
	return s, nil
}

// Queue reports how many request lines wait in the ingest queue and how
// many it holds at most.
func (s *Server) Queue() (depth, capacity int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.cfg.QueueDepth
}

// Engine returns the engine the server places on.
func (s *Server) Engine() *optchain.Engine { return s.eng }

// LatencyQuantile estimates the given admission-to-decision latency
// quantile (0..1, e.g. 0.99) in seconds from the server's histogram — the
// same estimate Prometheus' histogram_quantile derives from /metrics. It
// returns 0 before any placement.
func (s *Server) LatencyQuantile(q float64) float64 { return s.met.Quantile(q) }

// clock reads the server's monotonic clock.
func (s *Server) clock() time.Duration { return time.Since(s.start) }

// Place routes one placement request through the full ingest path — the
// same admission control, queue, and batch coalescing HTTP requests use —
// and returns the decision. On an idle server the calling goroutine places
// the request itself; otherwise it blocks until the dispatcher answers, ctx
// expires (the request is then dropped before placement), or the server
// closes.
func (s *Server) Place(ctx context.Context, req Request) (Response, error) {
	t0 := s.clock()
	// Arrays of one on this frame: an idle server answers without a unit.
	reqs, res := [1]Request{req}, [1]outcome{}
	placed, err := s.placeIdle(ctx, reqs[:], res[:], t0)
	if err != nil {
		return Response{}, err
	}
	if !placed {
		if res[0], err = s.queueOne(ctx, req, t0); err != nil {
			return Response{}, err
		}
	}
	if err := res[0].err; err != nil {
		return Response{}, err
	}
	return Response{ID: req.ID, Index: res[0].index, Shard: res[0].shard}, nil
}

// queueOne sends one request through the queue as a pooled unit of
// its own and waits for its answer.
func (s *Server) queueOne(ctx context.Context, req Request, t0 time.Duration) (outcome, error) {
	u := unitPool.Get().(*unit)
	u.ctx, u.t0 = ctx, t0
	u.reqs, u.res = append(u.reqs[:0], req), append(u.res[:0], outcome{})
	_, err := s.enqueue(u)
	if err == nil {
		if err = s.await(ctx, u); err != nil {
			if !errors.Is(err, ErrServerClosed) {
				err = fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			return outcome{}, err // u stays the dispatcher's
		}
	} else if errors.Is(err, ErrQueueFull) {
		s.met.reject(1)
	}
	out := u.res[0]
	u.ctx, u.reqs[0], u.res[0] = nil, Request{}, outcome{}
	unitPool.Put(u)
	return out, err
}

// placeIdle is the caller-runs path: when nothing is queued and nobody is
// placing, the caller takes the engine-owner lock and places its own lines,
// with no hand-off to the dispatcher and back. It reports whether it did;
// if not, res is untouched and the lines go through the queue.
func (s *Server) placeIdle(ctx context.Context, reqs []Request, res []outcome, t0 time.Duration) (bool, error) {
	if !s.own.TryLock() {
		return false, nil
	}
	defer s.own.Unlock()
	s.mu.Lock()
	closed, idle := s.closed, s.queued == 0
	s.mu.Unlock()
	if closed {
		return false, ErrServerClosed
	}
	if !idle {
		return false, nil // queued lines were admitted first
	}
	s.stage(ctx, reqs, res)
	base, shards, err := s.commit()
	s.met.place(byCaller, s.settle(reqs, res, base, shards, err), s.clock()-t0)
	return true, nil
}

// enqueue admits as many of u's lines as the queue has room for, the
// prefix, and cuts u down to them. It reports how many that is, with
// ErrQueueFull (admission control) when it is not all of them, or
// ErrServerClosed.
func (s *Server) enqueue(u *unit) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrServerClosed
	}
	n, err := len(u.reqs), error(nil)
	if room := s.cfg.QueueDepth - s.queued; n > room {
		n, err = room, ErrQueueFull
	}
	if n > 0 {
		u.reqs, u.res = u.reqs[:n], u.res[:n]
		s.queued += n
		s.queue <- u // has room: see Server.queue
	}
	return n, err
}

// await blocks until the dispatcher has answered u. It fails with ctx's
// error when ctx expires first (the dispatcher sees the same expired context
// and drops the lines it has not placed yet) and with ErrServerClosed when
// the dispatcher is gone; u then still belongs to the dispatcher and must
// not be read or reused.
func (s *Server) await(ctx context.Context, u *unit) error {
	select {
	case <-u.done:
		return nil
	case <-s.dead:
		// Prefer an answer that raced with the shutdown.
		select {
		case <-u.done:
			return nil
		default:
			return ErrServerClosed
		}
	case <-ctx.Done():
		return ctx.Err()
	}
}

// dispatch is the batching loop for units that had to queue: it blocks for
// one, coalesces what else is already queued into one PlaceBatch call, and
// answers every unit it took. On stop it drains the queue completely —
// every admitted line is answered — and exits. A send happens before Close
// marks the server closed, and so before stop is closed: once stop is seen,
// what the queue holds is all there will be.
func (s *Server) dispatch() {
	var next *unit // taken off the queue, but one too many for the last batch
	for {
		if next == nil {
			select {
			case next = <-s.queue:
			case <-s.stop:
				select {
				case next = <-s.queue:
				default:
					return
				}
			}
		}
		next = s.placeQueued(next)
	}
}

// placeQueued places first and, in admission order, the queued units that
// fit beside it in MaxBatch lines, as one batch; it returns the unit it took
// off the queue that did not fit, if any.
func (s *Server) placeQueued(first *unit) (next *unit) {
	s.own.Lock()
	defer s.own.Unlock()
	batch, next := s.coalesce(first)
	lines := 0
	for _, u := range batch {
		lines += len(u.reqs)
		s.stage(u.ctx, u.reqs, u.res)
	}
	s.mu.Lock()
	s.queued -= lines
	s.mu.Unlock()
	base, shards, err := s.commit()
	now := s.clock()
	for _, u := range batch {
		s.met.place(byDispatcher, s.settle(u.reqs, u.res, base, shards, err), now-u.t0)
		u.done <- struct{}{}
	}
	clear(batch)
	s.batch = batch[:0]
	return next
}

// coalesce collects first plus whatever is already queued, up to MaxBatch
// lines; next is the unit that would have gone over.
//
//optchain:locked s.own held by placeQueued.
func (s *Server) coalesce(first *unit) (batch []*unit, next *unit) {
	batch = append(s.batch[:0], first)
	for lines := len(first.reqs); lines < s.cfg.MaxBatch; {
		select {
		case u := <-s.queue:
			if lines += len(u.reqs); lines > s.cfg.MaxBatch {
				return batch, u
			}
			batch = append(batch, u)
		default:
			return batch, nil
		}
	}
	return batch, nil
}

// stage validates and resolves one unit's lines onto the batch under
// construction. Lines of an expired context are dropped before placement;
// invalid ones (bad position, unknown parent, duplicate id) are answered
// with ErrBadRequest and left out, so one client's bad request never aborts
// another's. Stream positions are assigned in admission order.
//
//optchain:locked s.own held by placeIdle/placeQueued.
func (s *Server) stage(ctx context.Context, reqs []Request, res []outcome) {
	var expired error
	if err := ctx.Err(); err != nil {
		expired = fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	dropped, invalid := 0, 0
	for i := range reqs {
		o := &res[i]
		if o.err != nil {
			continue
		}
		if expired != nil {
			o.err = expired
			dropped++
			continue
		}
		idx := s.nextIndex + len(s.txBuf)
		tx, err := s.resolve(&reqs[i], idx)
		if err != nil {
			o.err = err
			invalid++
			continue
		}
		if id := reqs[i].ID; id != "" {
			// Register before the engine call so later lines of this same
			// batch can name it as a parent (and a duplicate is caught even
			// within one batch); rolled back if the engine stops early.
			s.ids[id] = idx
		}
		o.index = idx
		s.txBuf = append(s.txBuf, tx)
	}
	if dropped > 0 {
		s.met.expire(dropped)
	}
	if invalid > 0 {
		s.met.invalid(invalid)
	}
}

// commit places the staged batch as one PlaceBatch call: shards holds the
// decisions for stream positions base, base+1, ... and is shorter than what
// was staged only when the engine stopped at err.
//
//optchain:locked s.own held by placeIdle/placeQueued.
func (s *Server) commit() (base int, shards []int, err error) {
	base = s.nextIndex
	if len(s.txBuf) == 0 {
		return base, nil, nil
	}
	shards, err = s.eng.PlaceBatch(s.txBuf, s.shardBuf)
	s.shardBuf = shards
	s.nextIndex += len(shards)
	s.met.batch(len(shards))
	s.txBuf, s.inputs = s.txBuf[:0], s.inputs[:0]
	return base, shards, err
}

// settle answers one staged unit from what commit returned and reports how
// many of its lines were placed. The engine stops only at a failure (a
// misbehaving custom strategy); every line staged past the placed prefix is
// answered with that error and its provisional id registration rolled back.
//
//optchain:locked s.own held by placeIdle/placeQueued.
func (s *Server) settle(reqs []Request, res []outcome, base int, shards []int, err error) (placed int) {
	failed := 0
	for i := range res {
		o := &res[i]
		if o.err != nil {
			continue
		}
		if k := o.index - base; k < len(shards) {
			o.shard = shards[k]
			placed++
			continue
		}
		if id := reqs[i].ID; id != "" {
			delete(s.ids, id)
		}
		o.err = fmt.Errorf("%w: %v", ErrBadRequest, err)
		failed++
	}
	if failed > 0 {
		s.met.invalid(failed)
	}
	return placed
}

// resolve translates one request into a StreamTx for stream position idx:
// the output count is range-checked as the engine checks it, absolute
// Inputs are range-checked, Parents resolve through the id map
// (including ids registered earlier in the same batch), and a duplicate ID
// is rejected before it can shadow the earlier transaction. The Engine does
// not retain StreamTx.Inputs, so they are the request's own slice or, with
// Parents, a stretch of the batch's arena.
//
//optchain:locked s.own held by stage's callers.
func (s *Server) resolve(req *Request, idx int) (optchain.StreamTx, error) {
	tx := optchain.StreamTx{Inputs: req.Inputs, Outputs: req.Outputs}
	if req.Outputs < 0 || req.Outputs > math.MaxInt32 {
		// The engine refuses these too, but by stopping the batch there.
		return tx, fmt.Errorf("%w: outputs %d not in [0, %d]", ErrBadRequest, req.Outputs, math.MaxInt32)
	}
	if req.ID != "" {
		if prev, dup := s.ids[req.ID]; dup {
			return tx, fmt.Errorf("%w: id %q already names stream position %d", ErrBadRequest, req.ID, prev)
		}
	}
	for _, in := range req.Inputs {
		if in < 0 || in >= idx {
			return tx, fmt.Errorf("%w: input position %d not in [0, %d)", ErrBadRequest, in, idx)
		}
	}
	if len(req.Parents) == 0 {
		return tx, nil
	}
	lo := len(s.inputs)
	s.inputs = append(s.inputs, req.Inputs...)
	for _, parent := range req.Parents {
		pos, ok := s.ids[parent]
		if !ok {
			s.inputs = s.inputs[:lo]
			return tx, fmt.Errorf("%w: unknown parent id %q (parents must be placed first)", ErrBadRequest, parent)
		}
		s.inputs = append(s.inputs, pos)
	}
	tx.Inputs = s.inputs[lo:len(s.inputs):len(s.inputs)]
	return tx, nil
}

// snapshotLoop drives the periodic snapshots: every SnapshotEvery it saves
// the state at the next unit boundary.
func (s *Server) snapshotLoop() {
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			// A failure is counted by saveState; the next tick tries again.
			_ = s.snapshot()
		}
	}
}

// Snapshot writes a state snapshot at the next unit boundary: it waits for
// the placement in progress, if any. It fails with ErrBadConfig when the
// server was built without a StatePath.
func (s *Server) Snapshot(ctx context.Context) error {
	if s.cfg.StatePath == "" {
		return fmt.Errorf("%w: snapshots need Config.StatePath", ErrBadConfig)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return s.snapshot()
}

func (s *Server) snapshot() error {
	s.own.Lock()
	defer s.own.Unlock()
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrServerClosed // Close writes the last one
	}
	return s.saveState()
}

// Close stops the server gracefully: admission closes immediately (new
// requests get ErrServerClosed), the dispatcher drains every already
// accepted line to a decision, the background goroutines are joined, a
// caller still placing its own lines finishes, and — when snapshots are
// configured — a final snapshot is written. ctx bounds the wait for the
// drain. A second Close returns ErrServerClosed.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)

	joined := make(chan struct{})
	go func() {
		defer close(joined)
		defer func() {
			// The join itself cannot fail; the recover satisfies the worker
			// contract and guards against future edits panicking here.
			_ = recover()
		}()
		s.wg.Wait()
		// A caller that took the owner lock before the server closed is
		// still placing: wait for it too.
		s.own.Lock()
		//lint:ignore SA2001 the empty critical section is the wait
		s.own.Unlock()
	}()
	select {
	case <-joined:
	case <-ctx.Done():
		return fmt.Errorf("%w: drain interrupted: %v", ErrServerClosed, ctx.Err())
	}

	s.mu.Lock()
	p := s.panicked
	s.mu.Unlock()
	if p != nil {
		panic(p) // re-raise a dispatcher panic on the joining goroutine (as experiment.Runner.Stream re-raises a cell's)
	}
	if s.cfg.StatePath != "" {
		s.own.Lock()
		defer s.own.Unlock()
		return s.saveState()
	}
	return nil
}
