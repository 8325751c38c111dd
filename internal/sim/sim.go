// Package sim runs the paper's end-to-end evaluation (§V): a sharded
// blockchain with leader/validator committees on a simulated network,
// clients issuing a Bitcoin-like transaction stream at a configured rate, a
// pluggable placement strategy deciding each transaction's output shard,
// and a pluggable cross-shard commit protocol (OmniLedger atomic commit or
// RapidChain yanking). It records the metrics behind every figure:
// confirmation latency, throughput, and per-shard queue series.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"optchain/internal/chain"
	"optchain/internal/core"
	"optchain/internal/dataset"
	"optchain/internal/des"
	"optchain/internal/metrics"
	"optchain/internal/placement"
	"optchain/internal/registry"
	"optchain/internal/shard"
	"optchain/internal/simnet"
	"optchain/internal/stats"
	"optchain/internal/txgraph"
	"optchain/internal/workload"
)

// retryDelay is the client backoff after a rejected transaction; it doubles
// per attempt up to 16×.
const retryDelay = 2 * time.Second

// clients is the number of client nodes issuing transactions.
const clients = 32

// Config parameterizes one simulation run.
type Config struct {
	// Source supplies the transaction stream and Txs its length; both are
	// required, and a source that ends before Txs fails the run. The run
	// pulls one transaction per issue event (nothing is pre-built), honors
	// each transaction's Gap so Markov-modulated scenarios shape real
	// arrival processes, and feeds every placement decision back to
	// feedback-aware sources (workload.Observer) — except when the placer
	// replays an offline partition (Metis): that partition was computed
	// from a materialization of the same stream, which saw no placements,
	// and an adaptive source answering the replay would no longer be the
	// stream that was partitioned. A recorded stream is a replay: Source.
	Source workload.Source
	Txs    int

	// Shards and Validators shape the committees (paper: 4-16 shards, ~400
	// validators each).
	Shards     int
	Validators int

	// Rate is the offered load in transactions/second (paper: 2000-6000).
	Rate float64

	// Placer names the placement strategy in the open registry (default
	// "OptChain"); MetisPart must hold the offline partition when it is
	// "Metis".
	Placer    string
	MetisPart []int32

	// Protocol names the cross-shard backend in the open registry (default
	// "omniledger").
	Protocol string

	// Shard exposes the committee constants.
	Shard shard.Config

	// Seed drives node placement and client jitter.
	Seed int64

	// QueueSampleEvery sets the queue-size sampling cadence (Figs. 6-7).
	QueueSampleEvery time.Duration

	// MaxSimTime aborts a run whose backlog never drains (the run is
	// reported with its partial commit count).
	MaxSimTime time.Duration

	// ValidateUTXO enables strict in-order ledger validation with the
	// full defer/reject/abort machinery. The default (false) is the
	// paper's regime: the replayed trace is globally valid, so spends
	// resolve optimistically when replay compresses parent-child spacing
	// below block time (see chain.Ledger.ConsumeOptimistic).
	ValidateUTXO bool

	// OptChain knobs (defaults are the paper's).
	Alpha   float64
	L2SWght float64

	// Progress, when non-nil, receives a Snapshot every ProgressEvery of
	// virtual time (default 5 s) and once more when the run finishes. It is
	// invoked on the simulation goroutine; implementations that share the
	// snapshot with other goroutines must synchronize.
	Progress func(Snapshot)
	// ProgressEvery sets the Progress cadence in virtual time.
	ProgressEvery time.Duration
}

func (c *Config) fillDefaults() error {
	if c.Source == nil {
		return errors.New("sim: Source is required")
	}
	if c.Txs <= 0 {
		return errors.New("sim: Source requires a positive Txs")
	}
	if c.Shards <= 0 {
		return errors.New("sim: Shards must be positive")
	}
	if c.Validators < 0 {
		return errors.New("sim: negative Validators")
	}
	if c.Validators == 0 {
		c.Validators = 400
	}
	if c.Rate <= 0 {
		return errors.New("sim: Rate must be positive")
	}
	if c.Placer == "" {
		c.Placer = "OptChain"
	}
	if c.Protocol == "" {
		c.Protocol = "omniledger"
	}
	if c.QueueSampleEvery <= 0 {
		c.QueueSampleEvery = 10 * time.Second
	}
	if c.MaxSimTime <= 0 {
		// Issue time plus a generous drain allowance.
		c.MaxSimTime = time.Duration(float64(c.Txs)/c.Rate*float64(time.Second)) + 30*time.Minute
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 5 * time.Second
	}
	return nil
}

// Snapshot is a mid-run view of simulation progress, delivered to the
// Config.Progress callback and surfaced by the Engine's MetricsSnapshot.
type Snapshot struct {
	// SimTime is the virtual clock at the snapshot.
	SimTime time.Duration
	// Issued and Committed count transactions that have entered the system
	// and reached commit; Total is the run's stream length.
	Issued    int
	Committed int
	Total     int
	// Retries counts client resubmissions after rejections so far.
	Retries int64
	// QueueMax is the deepest shard queue at the snapshot.
	QueueMax int
	// CrossFraction is the running cross-shard fraction over placed
	// transactions.
	CrossFraction float64
	// Done marks the final snapshot of a finished run.
	Done bool
}

// Result captures everything the figures need from one run.
type Result struct {
	Placer   string
	Protocol string
	Shards   int
	Rate     float64

	Total     int
	Committed int

	// MakespanSeconds is the time until the last commit (or the cap).
	MakespanSeconds float64
	// ThroughputTPS = Committed / MakespanSeconds — the paper's metric.
	// On short streams it is biased low by the post-issue drain tail
	// (negligible at the paper's 10M-transaction scale); SteadyTPS
	// corrects for that.
	ThroughputTPS float64
	// SteadyTPS is the commit rate over the issue window [0.2·T, T]
	// (T = issue duration) shifted by the median confirmation latency,
	// that is over [0.2·T + P50, T + P50], so that commits are compared
	// with the issues that produced them: the steady-state service rate,
	// robust to warm-up and drain edges. When that 0.8·T span covers only
	// a few block intervals (1.6 s at 2000 transactions and 1000 tx/s), a
	// block falling in or out of it moves the rate by tens of percent, and
	// the number is not a steady rate.
	SteadyTPS float64
	// IssueSeconds is the offered-load duration: the actual Gap-modulated
	// span from the first issue to the last.
	IssueSeconds float64

	AvgLatency float64 // seconds
	MaxLatency float64
	P50, P99   float64
	Latencies  *metrics.LatencyRecorder

	CrossFraction float64
	SameShard     int64
	CrossShard    int64
	Retries       int64
	Aborts        int64

	Queues *metrics.QueueTracker

	// Diagnostics: total blocks cut, ledger items committed across shards,
	// the mean recent consensus latency, and the kernel events the run
	// executed.
	BlocksCut        int64
	ItemsCommitted   int64
	ItemsDeferred    int64
	AvgConsensusSecs float64
	Events           uint64
}

// Run executes one simulation to completion (or the time cap). It is the
// deliberate no-context convenience over RunContext.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext executes one simulation under a context: cancellation or
// deadline expiry aborts the run promptly (within ~a thousand simulation
// events) and returns the context's error. This is how long runs stop
// cleanly without waiting for MaxSimTime.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	r := newRunner(cfg)
	r.ctx = ctx
	return r.run()
}

// runner holds one run's mutable state.
type runner struct {
	cfg    Config
	ctx    context.Context
	sim    *des.Simulator
	net    *simnet.Network
	shards []*shard.Shard
	placer placement.Placer
	tel    *liveTelemetry
	proto  registry.CommitBackend

	clients []simnet.NodeID
	rng     *rand.Rand

	// Stream state: the prefetched next transaction and its stream index
	// (while it is placed, its Outputs answer the placer's |Nout| query),
	// the one callback every issue event runs (a single issue is ever
	// queued), the optional feedback hook, the time of the last issue (the
	// actual offered-load window end under Gap modulation), and the first
	// source-validation failure, which aborts the run.
	srcPending workload.Tx
	srcIndex   int
	issue      func(*des.Simulator)
	srcObs     workload.Observer
	srcErr     error
	lastIssue  time.Duration
	perTx      time.Duration

	scheduledAt []time.Duration
	issuedCount int

	committed  int
	lastCommit time.Duration
	commitAt   []time.Duration

	latency *metrics.LatencyRecorder
	queues  *metrics.QueueTracker
	cross   placement.CrossCounter
	retries int64

	inputBuf []txgraph.Node
	dedupe   txgraph.Deduper

	// Ledger transactions and their input and output slices, carved from
	// chunks: a transaction lives until its commit and is never resized.
	txs  arena[chain.Transaction]
	ins  arena[chain.Outpoint]
	outs arena[chain.Output]
}

// arena hands out slices carved from chunks, turning one small allocation
// per take into one large one per chunk. Nothing is returned to it: a chunk
// is collected when the last slice carved from it is.
type arena[T any] struct{ free []T }

const arenaChunk = 1024

//optchain:hotpath
func (a *arena[T]) take(n int) []T {
	if n > len(a.free) {
		//optchain:alloc-ok one chunk per arenaChunk elements
		a.free = make([]T, max(n, arenaChunk))
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

func newRunner(cfg Config) *runner {
	r := &runner{
		cfg:     cfg,
		latency: &metrics.LatencyRecorder{},
		queues:  &metrics.QueueTracker{},
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	r.latency.Reserve(cfg.Txs)
	r.issue = func(*des.Simulator) { r.issueFromSource() }
	return r
}

func (r *runner) run() (*Result, error) {
	cfg := r.cfg
	n := cfg.Txs

	r.sim = des.New()
	r.net = simnet.New(r.sim)

	// Committees.
	for i := 0; i < cfg.Shards; i++ {
		leader := r.net.AddNode(r.rng.Float64(), r.rng.Float64())
		validators := r.net.AddRandomNodes(cfg.Validators, r.rng)
		r.shards = append(r.shards, shard.New(i, r.sim, r.net, leader, validators, cfg.Shard))
	}
	r.clients = r.net.AddRandomNodes(clients, r.rng)

	// Placement strategy, resolved through the open registry so externally
	// registered strategies are selectable by name exactly like the
	// built-ins.
	r.tel = newLiveTelemetry(r)
	placer, err := registry.NewStrategy(cfg.Placer, registry.StrategyContext{
		K: cfg.Shards,
		N: cfg.Txs,
		// Asked only for the transaction being placed (see
		// registry.StrategyContext.OutCounts), which is the prefetched one.
		OutCounts: func(v txgraph.Node) int {
			if int(v) == r.srcIndex {
				return r.srcPending.Outputs
			}
			return 0
		},
		Alpha:     cfg.Alpha,
		Weight:    cfg.L2SWght,
		Telemetry: r.tel,
		MetisPart: cfg.MetisPart,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	r.placer = placer

	// Protocol backend, resolved through the open registry. locate resolves
	// through the shared assignment.
	locate := func(id chain.TxID) int {
		return r.placer.Assignment().ShardOf(txgraph.Node(dataset.Index(id)))
	}
	proto, err := registry.NewProtocol(cfg.Protocol, registry.ProtocolContext{
		Sim:        r.sim,
		Net:        r.net,
		Shards:     r.shards,
		Locate:     locate,
		Optimistic: !cfg.ValidateUTXO,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	r.proto = proto

	// Issue clock: issue events are chained (each schedules the next after
	// its Gap-scaled inter-arrival, nominally 1/rate), so the source is
	// pulled one transaction at a time and nothing is materialized.
	// Placement is decided at the tick (the wallet knows its transaction up
	// front, and decisions happen in stream order, matching §IV's online
	// model); ordering races with uncommitted parents are absorbed by the
	// shards' orphan-pool deferral.
	r.scheduledAt = make([]time.Duration, n)
	r.commitAt = make([]time.Duration, n)
	r.perTx = time.Duration(float64(time.Second) / cfg.Rate)
	if _, offline := placer.(*placement.MetisReplay); !offline {
		r.srcObs, _ = cfg.Source.(workload.Observer)
	}
	if r.pullSource(0) {
		r.scheduleSourceIssue(0, 0)
	}

	// Queue sampler.
	lens := make([]int, cfg.Shards)
	des.StartTicker(r.sim, 0, cfg.QueueSampleEvery, "sim.queueSample", func(s *des.Simulator) bool {
		for i, sh := range r.shards {
			lens[i] = sh.QueueLen()
		}
		r.queues.Sample(s.Now(), lens)
		return r.committed < n
	})

	// Progress reporting on the virtual clock.
	if cfg.Progress != nil {
		des.StartTicker(r.sim, cfg.ProgressEvery, cfg.ProgressEvery, "sim.progress", func(s *des.Simulator) bool {
			cfg.Progress(r.snapshot(false))
			return r.committed < n
		})
	}

	// Wall-clock control: cancellation and deadlines on the run's context
	// abort between events, as does a source-validation failure.
	ctxErr := func() error { return nil }
	if r.ctx != nil && r.ctx.Done() != nil {
		ctxErr = r.ctx.Err
	}
	r.sim.Interrupt = func() error {
		if r.srcErr != nil {
			return r.srcErr
		}
		return ctxErr()
	}

	// Safety caps: a generous event budget plus the configured time cap.
	r.sim.MaxEvents = uint64(n)*2000 + 10_000_000
	if err := r.sim.RunUntil(cfg.MaxSimTime); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if r.srcErr != nil {
		// A first-transaction failure leaves the event loop empty, so
		// RunUntil returns clean; surface the source error.
		return nil, fmt.Errorf("sim: %w", r.srcErr)
	}
	// A mix whose replay component fails can still deliver Txs
	// transactions from its other components; it reports the failure
	// through Failer, and the run surfaces it instead of passing the
	// truncated component off as a short one.
	if f, ok := cfg.Source.(workload.Failer); ok {
		if err := f.Err(); err != nil {
			return nil, fmt.Errorf("sim: workload %s: %w", cfg.Source.Name(), err)
		}
	}

	if cfg.Progress != nil {
		cfg.Progress(r.snapshot(true))
	}
	return r.buildResult(), nil
}

// snapshot captures the run's current progress counters.
func (r *runner) snapshot(done bool) Snapshot {
	queueMax := 0
	for _, sh := range r.shards {
		if l := sh.QueueLen(); l > queueMax {
			queueMax = l
		}
	}
	return Snapshot{
		SimTime:       r.sim.Now(),
		Issued:        r.issuedCount,
		Committed:     r.committed,
		Total:         r.cfg.Txs,
		Retries:       r.retries,
		QueueMax:      queueMax,
		CrossFraction: r.cross.Fraction(),
		Done:          done,
	}
}

// pullSource prefetches stream transaction i and validates it the way
// Engine.PlaceBatch validates its input: at least one output, and every
// input spending an earlier stream transaction; and OutVals either empty or
// one value per output, as sourceTx needs. A malformed transaction (a
// custom Source) records srcErr, which aborts the run via the event-loop
// interrupt instead of panicking inside the kernel or the placer. So does a
// stream that ends before Txs transactions: the run would otherwise wait
// until MaxSimTime for transactions that never come. A source that fails
// mid-stream (replay of a corrupt trace) reports why through
// workload.Failer.
func (r *runner) pullSource(i int) bool {
	if !r.cfg.Source.Next(&r.srcPending) {
		name := r.cfg.Source.Name()
		r.srcErr = fmt.Errorf("workload %s ended after %d of %d transactions", name, i, r.cfg.Txs)
		if f, ok := r.cfg.Source.(workload.Failer); ok && f.Err() != nil {
			r.srcErr = fmt.Errorf("workload %s: %w", name, f.Err())
		}
		return false
	}
	if r.srcPending.Outputs < 1 {
		r.srcErr = fmt.Errorf("workload %s: tx %d has zero outputs: %w", r.cfg.Source.Name(), i, chain.ErrEmptyOutputs)
		return false
	}
	if n := len(r.srcPending.OutVals); n != 0 && n != r.srcPending.Outputs {
		r.srcErr = fmt.Errorf("workload %s: tx %d has %d output values for %d outputs",
			r.cfg.Source.Name(), i, n, r.srcPending.Outputs)
		return false
	}
	for j, in := range r.srcPending.Inputs {
		if in.Tx < 0 || in.Tx >= i {
			r.srcErr = fmt.Errorf("workload %s: tx %d input %d spends tx %d, not an earlier transaction: %w",
				r.cfg.Source.Name(), i, j, in.Tx, chain.ErrMissingUTXO)
			return false
		}
	}
	return true
}

// scheduleSourceIssue schedules the issue event for the prefetched stream
// transaction i.
func (r *runner) scheduleSourceIssue(i int, at time.Duration) {
	r.scheduledAt[i] = at
	r.lastIssue = at
	r.srcIndex = i
	r.sim.ScheduleAt(at, "sim.issue", r.issue)
}

// issueFromSource processes the prefetched transaction, then prefetches the
// next and chains its issue event one Gap-scaled inter-arrival later.
//
//optchain:hotpath once per transaction; the source, the placer and the protocol own what it allocates.
func (r *runner) issueFromSource() {
	r.decideSource(r.srcIndex)
	next := r.srcIndex + 1
	if next >= r.cfg.Txs || !r.pullSource(next) {
		return
	}
	gap := r.srcPending.Gap
	if gap <= 0 {
		gap = 1
	}
	r.scheduleSourceIssue(next, r.sim.Now()+time.Duration(gap*float64(r.perTx)))
}

// decideSource runs the placement strategy for the prefetched transaction i
// at its issue tick (stream order, matching §IV's online model) and submits
// it, materializing only that one transaction, then feeds the decision back
// to feedback-aware sources.
//
//optchain:hotpath
func (r *runner) decideSource(i int) {
	r.tel.client = i % len(r.clients)
	client := r.clients[r.tel.client]
	src := &r.srcPending

	r.inputBuf = r.inputBuf[:0]
	for _, in := range src.Inputs {
		r.inputBuf = append(r.inputBuf, txgraph.Node(in.Tx))
	}
	r.inputBuf = r.dedupe.Compact(r.inputBuf, 0)
	s := r.placer.Place(txgraph.Node(i), r.inputBuf)
	r.cross.Observe(r.placer.Assignment(), r.inputBuf, s)
	if r.srcObs != nil {
		r.srcObs.Observe(i, s)
	}

	r.issuedCount++
	r.submit(i, client, r.sourceTx(i), s, 0)
}

// sourceTx materializes the prefetched stream transaction i for the ledger.
//
//optchain:hotpath carved from the runner's arenas.
func (r *runner) sourceTx(i int) *chain.Transaction {
	src := &r.srcPending
	tx := &r.txs.take(1)[0]
	tx.ID = chain.TxID(i + 1)
	tx.Inputs = r.ins.take(len(src.Inputs))
	tx.Outputs = r.outs.take(src.Outputs)
	for j, in := range src.Inputs {
		tx.Inputs[j] = chain.Outpoint{Tx: chain.TxID(in.Tx + 1), Index: in.Index}
	}
	// Recorded values as they are; otherwise the shared split convention
	// (dataset.SplitValue), which keeps ledger values identical whether a
	// scenario is streamed or materialized.
	if len(src.OutVals) > 0 {
		for j, v := range src.OutVals {
			tx.Outputs[j] = chain.Output{Value: v}
		}
		return tx
	}
	dataset.SplitValue(src.Outputs, src.Value, func(idx uint32, val int64) {
		tx.Outputs[idx] = chain.Output{Value: val}
	})
	return tx
}

// submit sends the transaction, retrying with backoff on rejection
// (transient ordering races, e.g. re-locks after an abort).
//
//optchain:hotpath
func (r *runner) submit(i int, client simnet.NodeID, tx *chain.Transaction, s int, attempt int) {
	//optchain:alloc-ok the per-attempt outcome callback: what the client remembers of a transaction in flight
	r.proto.Submit(client, tx, s, func(sim *des.Simulator, ok bool) {
		if ok {
			r.onCommitted(i, sim.Now())
			return
		}
		r.retries++
		delay := retryDelay << uint(min(attempt, 4))
		sim.Schedule(delay, "sim.retry", func(*des.Simulator) {
			r.submit(i, client, tx, s, attempt+1)
		})
	})
}

// onCommitted records metrics and wakes dependent transactions.
func (r *runner) onCommitted(i int, now time.Duration) {
	r.committed++
	r.commitAt[i] = now
	r.lastCommit = now
	r.latency.Observe(now - r.scheduledAt[i])
}

func (r *runner) buildResult() *Result {
	same, crossN, aborts := r.proto.Counters()
	makespan := r.lastCommit.Seconds()
	if r.committed < r.cfg.Txs {
		makespan = r.cfg.MaxSimTime.Seconds()
	}
	res := &Result{
		Placer:          r.placer.Name(),
		Protocol:        r.cfg.Protocol,
		Shards:          r.cfg.Shards,
		Rate:            r.cfg.Rate,
		Total:           r.cfg.Txs,
		Committed:       r.committed,
		MakespanSeconds: makespan,
		Latencies:       r.latency,
		CrossFraction:   r.cross.Fraction(),
		SameShard:       same,
		CrossShard:      crossN,
		Retries:         r.retries,
		Aborts:          aborts,
		Queues:          r.queues,
		Events:          r.sim.Executed(),
	}
	if makespan > 0 {
		res.ThroughputTPS = float64(r.committed) / makespan
	}
	sum := r.latency.Summary()
	res.AvgLatency = sum.Mean
	res.MaxLatency = sum.Max
	res.P50 = r.latency.Percentile(50)
	res.P99 = r.latency.Percentile(99)

	var consensusSum float64
	for _, sh := range r.shards {
		res.BlocksCut += sh.BlocksCut
		res.ItemsCommitted += sh.CommittedItems
		res.ItemsDeferred += sh.DeferredItems
		consensusSum += sh.RecentConsensusSeconds()
	}
	res.AvgConsensusSecs = consensusSum / float64(len(r.shards))

	commitTimes := make([]time.Duration, 0, r.cfg.Txs)
	for _, t := range r.commitAt {
		if t > 0 {
			commitTimes = append(commitTimes, t)
		}
	}

	res.IssueSeconds = float64(r.cfg.Txs) / r.cfg.Rate
	issueEnd := time.Duration(res.IssueSeconds * float64(time.Second))
	if r.lastIssue > 0 {
		// Gap-modulated sources shape the real arrival process: measure the
		// steady-state window against the actual offered-load span, not the
		// nominal Txs/Rate, or burst scenarios would be charged for idle
		// tail they never offered load in.
		res.IssueSeconds = r.lastIssue.Seconds()
		issueEnd = r.lastIssue
	}
	// Shift the measurement window by the median confirmation latency so
	// the commit stream is compared against the issue interval that
	// produced it (commits lag issues by one pipeline depth).
	lag := time.Duration(res.P50 * float64(time.Second))
	start := issueEnd/5 + lag
	end := issueEnd + lag
	if window := (end - start).Seconds(); window > 0 {
		steady := 0
		for _, t := range commitTimes {
			if t >= start && t <= end {
				steady++
			}
		}
		res.SteadyTPS = float64(steady) / window
	}
	return res
}

// liveTelemetry implements core.Telemetry from live simulation state — the
// client-observable estimates the paper's wallet uses (§IV-C).
type liveTelemetry struct {
	shards []*shard.Shard
	// commRate[client][shard] is λc, a constant of the node placement.
	commRate [][]float64
	// client indexes the client issuing the transaction being placed.
	client int
}

// newLiveTelemetry tabulates λc = 1 / round-trip estimate between each
// client and each shard leader (propagation + ~500 B transfer).
func newLiveTelemetry(r *runner) *liveTelemetry {
	t := &liveTelemetry{shards: r.shards, commRate: make([][]float64, len(r.clients))}
	for c, client := range r.clients {
		t.commRate[c] = make([]float64, len(r.shards))
		for s, sh := range r.shards {
			rtt := 2*r.net.Latency(client, sh.Leader) + r.net.TransferTime(500)
			t.commRate[c][s] = stats.RateFromMean(rtt.Seconds())
		}
	}
	return t
}

// CommRate implements core.Telemetry.
func (t *liveTelemetry) CommRate(shard int) float64 { return t.commRate[t.client][shard] }

// VerifyRate implements core.Telemetry: λv from the shard's recent
// consensus latency and its current queue depth.
func (t *liveTelemetry) VerifyRate(shard int) float64 {
	sh := t.shards[shard]
	return stats.VerificationRate(sh.RecentConsensusSeconds(), sh.QueueLen(), sh.BlockTxs())
}

// Compile-time interface compliance check.
var _ core.Telemetry = (*liveTelemetry)(nil)
