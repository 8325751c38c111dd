package optchain

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"strings"
	"sync"
	"time"

	"optchain/internal/core"
	"optchain/internal/names"
	"optchain/internal/placement"
	"optchain/internal/registry"
	"optchain/internal/sim"
	"optchain/internal/txgraph"
	"optchain/internal/workload"
)

// Typed errors returned by the Engine API. Match them with errors.Is; none
// of the exported constructors or methods panic.
var (
	// ErrUnknownStrategy reports a strategy name with no registered factory.
	ErrUnknownStrategy = registry.ErrUnknownStrategy
	// ErrUnknownProtocol reports a protocol name with no registered factory.
	ErrUnknownProtocol = registry.ErrUnknownProtocol
	// ErrUnknownWorkload reports a workload scenario name with no
	// registered factory.
	ErrUnknownWorkload = workload.ErrUnknownWorkload
	// ErrBadRegistration reports a refused RegisterStrategy,
	// RegisterProtocol or RegisterWorkload: an empty, duplicate or
	// ill-formed name, or a nil factory.
	ErrBadRegistration = names.ErrBadRegistration
	// ErrBadShard reports a shard index outside [0, K).
	ErrBadShard = errors.New("optchain: shard index out of range")
	// ErrBadInput reports a stream transaction whose input refers to a
	// transaction that has not been placed yet (or to itself).
	ErrBadInput = errors.New("optchain: input refers to an unplaced transaction")
	// ErrBadOption reports an invalid functional-option value.
	ErrBadOption = errors.New("optchain: invalid option")
	// ErrRunning reports a second concurrent Run on the same Engine.
	ErrRunning = errors.New("optchain: engine run already in progress")
)

// MetricsSnapshot is a point-in-time view of an Engine's progress: the
// virtual clock, issue/commit counters, retries, the deepest shard queue,
// and the running cross-shard fraction. During Run it is refreshed on every
// progress tick; in streaming mode (Place/PlaceStream) the Issued counter
// tracks placed transactions.
type MetricsSnapshot = sim.Snapshot

// StreamTx is one transaction of an online stream: the stream indexes of
// the transactions whose outputs it spends, and the number of outputs it
// creates. Inputs may repeat (one transaction spending several outputs of
// the same parent); the Engine deduplicates them. Outputs of 0 means
// unknown — the T2S score then falls back to the spenders-seen-so-far
// divisor, and the transaction is never retired. A transaction with a
// known count is retired (its score vector dropped, its memory reused) once
// that many distinct transactions have spent from it; a later input naming
// it is still placed, and counted in PlacementStats.RetiredRefs.
type StreamTx struct {
	Inputs  []int
	Outputs int
}

// PlacementStats summarizes the stream placed through an Engine so far.
type PlacementStats struct {
	// Placed is the number of transactions placed.
	Placed int
	// Cross counts cross-shard transactions; CrossFraction = Cross/Placed.
	Cross         int64
	CrossFraction float64
	// ShardCounts is the per-shard transaction tally.
	ShardCounts []int64
	// MaxShardShare is the largest shard's tally over the mean tally: 1 is
	// a perfectly balanced placement, k is everything in one shard (0
	// before the first placement).
	MaxShardShare float64
	// SlabEntries is the number of sparse p'(v) entries the T2S index holds
	// now, in the vectors of transactions that still have an unspent output
	// (0 for strategies without an index).
	SlabEntries int64
	// StateBytes is the heap the engine's per-transaction state holds now,
	// computed from the capacities of its columns (output counts, shard
	// assignment, and for T2S/OptChain the slab chunks with their free
	// slots, the node records and the free-list heads), not from the
	// runtime's memory statistics.
	StateBytes int64
	// RetiredTxs counts transactions whose declared outputs have all been
	// spent, so that the T2S index dropped their p'(v). A transaction placed
	// with Outputs 0 (unknown) is never retired.
	RetiredTxs int64
	// RetiredRefs counts input references that named a retired transaction:
	// the stream spent more of its outputs than it declared. Such a
	// reference is placed and counts toward the cross-shard statistics, but
	// contributes no score mass. It is 0 on a valid UTXO stream.
	RetiredRefs int64
}

// Engine is the package's main entry point: an online transaction-placement
// and simulation engine over a fixed shard count, a named placement
// strategy, and a named commit protocol, both resolved through the open
// registry (see RegisterStrategy / RegisterProtocol).
//
// Construct with New and functional options. Engines serve two modes:
//
//   - Streaming placement: Place / PlaceStream route transactions one at a
//     time via the paper's online model (§IV) — the deployment surface a
//     wallet uses.
//   - Full simulation: Run drives the end-to-end sharded-blockchain
//     evaluation (§V) with context cancellation, progress callbacks, and
//     live MetricsSnapshot reads from other goroutines.
//
// Methods are safe for concurrent use.
type Engine struct {
	strategy      string
	protocol      string
	shards        int
	dataset       *Dataset
	workloadName  string
	workloadKnobs map[string]float64
	txs           int
	rate          float64
	seed          int64
	validators    int
	clients       int
	tel           Telemetry
	alpha         float64
	l2sWeight     float64
	validateUTXO  bool
	maxSimTime    time.Duration
	metisPart     []int32
	streamCap     int
	progress      func(MetricsSnapshot)
	progressEvery time.Duration
	shardCfg      ShardConfig

	mu       sync.Mutex
	placer   Placer                 // guarded by mu
	placerN  int                    // guarded by mu — capacity hint the placer was built with
	placed   int                    // guarded by mu
	outs     []int32                // guarded by mu
	cross    placement.CrossCounter // guarded by mu
	inputBuf []txgraph.Node         // guarded by mu
	dedupe   txgraph.Deduper        // guarded by mu
	snap     MetricsSnapshot        // guarded by mu
	running  bool                   // guarded by mu
}

// Option configures an Engine under construction. Options validate eagerly:
// New returns the first option error instead of deferring it to Run.
type Option func(*Engine) error

// WithShards sets the number of shards (required to be >= 1; default 16,
// the paper's largest configuration). Placer state and snapshots store a
// shard id in 2 bytes, so more than 65535 shards are rejected.
func WithShards(k int) Option {
	return func(e *Engine) error {
		if k < 1 {
			return fmt.Errorf("%w: WithShards(%d): need at least 1 shard", ErrBadOption, k)
		}
		if k > placement.MaxShards {
			return fmt.Errorf("%w: WithShards(%d): at most %d shards", ErrBadOption, k, placement.MaxShards)
		}
		e.shards = k
		return nil
	}
}

// WithStrategy selects the placement strategy by registry name (default
// "OptChain"). Names are case-insensitive; unknown names fail New with
// ErrUnknownStrategy.
func WithStrategy(name string) Option {
	return func(e *Engine) error {
		if strings.TrimSpace(name) == "" {
			return fmt.Errorf("%w: WithStrategy: empty name", ErrBadOption)
		}
		e.strategy = name
		return nil
	}
}

// WithProtocol selects the cross-shard commit protocol by registry name
// (default "omniledger"). Unknown names fail New with ErrUnknownProtocol.
func WithProtocol(name string) Option {
	return func(e *Engine) error {
		if strings.TrimSpace(name) == "" {
			return fmt.Errorf("%w: WithProtocol: empty name", ErrBadOption)
		}
		e.protocol = name
		return nil
	}
}

// WithDataset supplies the transaction stream for Run and for
// dataset-backed streaming. Run with neither a dataset nor a workload
// streams the calibrated "bitcoin" scenario, which reproduces
// GenerateDataset(DatasetDefaults()) transaction for transaction.
func WithDataset(d *Dataset) Option {
	return func(e *Engine) error {
		if d == nil {
			return fmt.Errorf("%w: WithDataset(nil)", ErrBadOption)
		}
		e.dataset = d
		return nil
	}
}

// WithWorkload selects a workload scenario (see Workloads) as the engine's
// transaction stream, with optional generator-specific knobs — instead of a
// materialized dataset. The name may be a full workload spec, passed
// unchanged, so composite scenarios work everywhere the Engine does (the
// grammar is documented in SCENARIOS.md):
//
//	optchain.WithWorkload("hotspot", map[string]float64{"exp": 1.5})
//	optchain.WithWorkload("mix:bitcoin=0.7,hotspot=0.2,adversarial=0.1", nil)
//	optchain.WithWorkload("replay:trace.tan,mod=(burst:boost=4)", nil)
//
// Scenario runs are streaming: Run pulls one transaction per issue event
// and PlaceWorkload batches through PlaceBatch, so million-user-scale
// streams never pre-build a Dataset. WithTxs sizes the stream (default
// 20000); feedback-aware scenarios (adversarial, mixes containing one)
// receive every placement decision back. WithWorkload and WithDataset are
// mutually exclusive.
func WithWorkload(name string, knobs map[string]float64) Option {
	return func(e *Engine) error {
		if strings.TrimSpace(name) == "" {
			return fmt.Errorf("%w: WithWorkload: empty name", ErrBadOption)
		}
		e.workloadName = name
		if len(knobs) > 0 {
			e.workloadKnobs = make(map[string]float64, len(knobs))
			for k, v := range knobs {
				e.workloadKnobs[k] = v
			}
		} else {
			e.workloadKnobs = nil
		}
		return nil
	}
}

// WithTxs limits Run to the first n transactions of the dataset (0 = the
// whole stream). Without a dataset it also sizes the generated one.
func WithTxs(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("%w: WithTxs(%d)", ErrBadOption, n)
		}
		e.txs = n
		return nil
	}
}

// WithRate sets the offered load in transactions/second (default 2000, the
// paper's low end).
func WithRate(tps float64) Option {
	return func(e *Engine) error {
		if tps <= 0 {
			return fmt.Errorf("%w: WithRate(%v): rate must be positive", ErrBadOption, tps)
		}
		e.rate = tps
		return nil
	}
}

// WithSeed sets the seed driving dataset generation, node placement, and
// client jitter (default 1).
func WithSeed(seed int64) Option {
	return func(e *Engine) error { e.seed = seed; return nil }
}

// WithValidators sets the committee size per shard (default 400, the
// paper's).
func WithValidators(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("%w: WithValidators(%d)", ErrBadOption, n)
		}
		e.validators = n
		return nil
	}
}

// WithClients sets the number of client nodes issuing transactions during
// Run (default 32).
func WithClients(n int) Option {
	return func(e *Engine) error {
		if n < 1 {
			return fmt.Errorf("%w: WithClients(%d)", ErrBadOption, n)
		}
		e.clients = n
		return nil
	}
}

// WithTelemetry supplies client-observable shard load estimates to the L2S
// model for streaming placement (Place / PlaceStream). Run ignores it: the
// full simulation feeds the placer live telemetry from the simulated
// network.
func WithTelemetry(tel Telemetry) Option {
	return func(e *Engine) error { e.tel = tel; return nil }
}

// WithAlpha sets the PageRank damping factor (0 < alpha <= 1; default 0.5).
func WithAlpha(alpha float64) Option {
	return func(e *Engine) error {
		if !(alpha > 0 && alpha <= 1) {
			return fmt.Errorf("%w: WithAlpha(%v): need 0 < alpha <= 1", ErrBadOption, alpha)
		}
		e.alpha = alpha
		return nil
	}
}

// WithL2SWeight sets the L2S coefficient in the Temporal Fitness score
// (default 0.01); it must be finite and not negative. A weight of 0 is
// accepted and means that default, not "no L2S term": the strategy context
// and the placer both read 0 as unset. To place without the latency term,
// configure no telemetry (streaming mode) or use the "T2S" strategy.
func WithL2SWeight(w float64) Option {
	return func(e *Engine) error {
		if !(w >= 0 && w <= math.MaxFloat64) {
			return fmt.Errorf("%w: WithL2SWeight(%v)", ErrBadOption, w)
		}
		e.l2sWeight = w
		return nil
	}
}

// WithUTXOValidation enables strict in-order ledger validation during Run,
// with the full defer/reject/abort machinery. The default (off) is the
// paper's regime: the replayed trace is globally valid, so spends resolve
// optimistically when replay compresses parent-child spacing below block
// time.
func WithUTXOValidation(on bool) Option {
	return func(e *Engine) error { e.validateUTXO = on; return nil }
}

// WithMaxSimTime caps the virtual duration of Run; a run whose backlog
// never drains is reported with its partial commit count.
func WithMaxSimTime(d time.Duration) Option {
	return func(e *Engine) error {
		if d <= 0 {
			return fmt.Errorf("%w: WithMaxSimTime(%v)", ErrBadOption, d)
		}
		e.maxSimTime = d
		return nil
	}
}

// WithMetisPartition supplies the offline partition the "Metis" strategy
// replays. Run computes one automatically when the strategy is Metis and no
// partition was given.
func WithMetisPartition(part []int32) Option {
	return func(e *Engine) error {
		if len(part) == 0 {
			return fmt.Errorf("%w: WithMetisPartition: empty partition", ErrBadOption)
		}
		for i, s := range part {
			if s < 0 {
				return fmt.Errorf("%w: partition[%d] = %d", ErrBadShard, i, s)
			}
		}
		e.metisPart = part
		return nil
	}
}

// WithStreamCapacity hints the expected stream length for streaming-mode
// placement without a dataset. Columns are sized from it, and
// capacity-bounded strategies (T2S, Greedy) take their per-shard budget
// from it while the stream is within it; past it, or without it, the
// budget grows with the transactions placed.
func WithStreamCapacity(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("%w: WithStreamCapacity(%d)", ErrBadOption, n)
		}
		e.streamCap = n
		return nil
	}
}

// WithProgress installs a callback receiving a MetricsSnapshot every
// progress tick during Run, and once more when the run finishes. The
// callback runs on the simulation goroutine.
func WithProgress(fn func(MetricsSnapshot)) Option {
	return func(e *Engine) error { e.progress = fn; return nil }
}

// WithProgressEvery sets the progress cadence in virtual time (default 5s).
// It refines WithProgress; using it without a WithProgress callback fails
// New with ErrBadOption.
func WithProgressEvery(d time.Duration) Option {
	return func(e *Engine) error {
		if d <= 0 {
			return fmt.Errorf("%w: WithProgressEvery(%v)", ErrBadOption, d)
		}
		e.progressEvery = d
		return nil
	}
}

// WithShardTuning overrides the committee constants (block size, block
// wait, consensus costs) for Run.
func WithShardTuning(cfg ShardConfig) Option {
	return func(e *Engine) error { e.shardCfg = cfg; return nil }
}

// WithParallelism is accepted for compatibility and changes nothing:
// placement is serial, because each decision reads the decisions of the
// transactions it spends from. n < 0 still fails New with ErrBadOption;
// any other n yields an engine identical to one built without the option.
func WithParallelism(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("%w: WithParallelism(%d)", ErrBadOption, n)
		}
		return nil
	}
}

// New builds an Engine, validating every option eagerly: the first invalid
// option, unknown strategy, or unknown protocol is returned as an error —
// nothing panics and nothing is deferred to Run.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{
		strategy: "OptChain",
		protocol: "omniledger",
		shards:   16,
		rate:     2000,
		seed:     1,
	}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	if err := CheckStrategy(e.strategy); err != nil {
		return nil, err
	}
	if err := CheckProtocol(e.protocol); err != nil {
		return nil, err
	}
	if e.txs != 0 && e.dataset != nil && e.txs > e.dataset.Len() {
		return nil, fmt.Errorf("%w: WithTxs(%d) exceeds dataset length %d",
			ErrBadOption, e.txs, e.dataset.Len())
	}
	if e.progressEvery != 0 && e.progress == nil {
		// A cadence with no callback would be silently inert; fail loudly so
		// the missing WithProgress is caught at construction.
		return nil, fmt.Errorf("%w: WithProgressEvery(%v) without WithProgress",
			ErrBadOption, e.progressEvery)
	}
	if e.workloadName != "" {
		if e.dataset != nil {
			return nil, fmt.Errorf("%w: WithWorkload and WithDataset are mutually exclusive", ErrBadOption)
		}
		// Eager validation: building a throwaway source surfaces unknown
		// scenario names and bad knobs at New instead of at Run. The probe
		// is closed, not drained, so replay sources release their trace
		// file immediately.
		src, err := e.newWorkloadSource(1)
		if err != nil {
			return nil, err
		}
		workload.Close(src)
	}
	// Partition entries are range-checked here rather than in the option:
	// WithShards may legitimately apply after WithMetisPartition.
	for i, s := range e.metisPart {
		if int(s) >= e.shards {
			return nil, fmt.Errorf("%w: partition[%d] = %d not in [0, %d)",
				ErrBadShard, i, s, e.shards)
		}
	}
	return e, nil
}

// Strategy returns the engine's placement strategy name.
func (e *Engine) Strategy() string { return e.strategy }

// Protocol returns the engine's commit protocol name.
func (e *Engine) Protocol() string { return e.protocol }

// Shards returns the engine's shard count.
func (e *Engine) Shards() int { return e.shards }

// ensurePlacerLocked lazily builds the streaming-mode placer.
//
//optchain:locked e.mu held by Place/PlaceBatch; the outCounts closure runs under the same lock when the placer is later invoked.
func (e *Engine) ensurePlacerLocked() error {
	if e.placer != nil {
		return nil
	}
	n := e.streamCap
	if n == 0 && e.dataset != nil {
		n = e.dataset.Len()
	}
	outCounts := func(v txgraph.Node) int { return int(e.outs[v]) }
	if e.dataset != nil {
		d := e.dataset
		outCounts = func(v txgraph.Node) int {
			if int(v) < d.Len() {
				return d.NumOutputs(int(v))
			}
			return 0
		}
	}
	p, err := registry.NewStrategy(e.strategy, registry.StrategyContext{
		K:         e.shards,
		N:         n,
		OutCounts: outCounts,
		Alpha:     e.alpha,
		Weight:    e.l2sWeight,
		Telemetry: e.tel,
		MetisPart: e.metisPart,
	})
	if err != nil {
		return err
	}
	e.placer = p
	e.placerN = n
	if cap(e.outs) < n {
		e.outs = append(make([]int32, 0, n), e.outs...)
	}
	return nil
}

// Place routes one stream transaction to a shard via the engine's strategy
// — the paper's online placement model, one decision per arrival in stream
// order. It returns the chosen shard in [0, Shards()).
func (e *Engine) Place(tx StreamTx) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensurePlacerLocked(); err != nil {
		return -1, err
	}
	s, err := e.placeOneLocked(tx)
	if err != nil {
		return -1, err
	}
	e.refreshStreamSnapshotLocked()
	return s, nil
}

// PlaceBatch routes a slice of stream transactions in order, exactly as the
// equivalent sequence of Place calls would (same strategy state, same
// decisions), but pays the lock, placer lookup, and snapshot refresh once
// per batch instead of once per transaction. Results are appended to
// shards[:0] and returned, so a caller-owned slice is reused across
// batches; pass nil to let PlaceBatch allocate one.
//
// On error, the returned slice covers the transactions placed before the
// failure (engine state keeps those placements, as with Place); the error
// names the failing transaction by its absolute stream position, and
// len(result) gives its offset within the batch.
//
//optchain:hotpath the per-stream placement loop: one iteration per transaction, no steady-state allocation beyond amortized slice growth.
func (e *Engine) PlaceBatch(txs []StreamTx, shards []int) ([]int, error) {
	if shards == nil {
		shards = make([]int, 0, len(txs))
	} else {
		shards = shards[:0]
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.ensurePlacerLocked(); err != nil {
		return shards, err
	}
	for i := range txs {
		s, err := e.placeOneLocked(txs[i])
		if err != nil {
			// The error already names the failing transaction by its
			// absolute stream position; len(shards) gives the batch offset.
			e.refreshStreamSnapshotLocked()
			return shards, err
		}
		shards = append(shards, s)
	}
	e.refreshStreamSnapshotLocked()
	return shards, nil
}

// appendInputsLocked appends to dst the distinct transactions that stream
// transaction u spends, in the order it first names them, refusing an input
// that is not an earlier transaction.
//
//optchain:locked e.mu held by Place/PlaceBatch.
//optchain:hotpath one call per stream transaction.
func (e *Engine) appendInputsLocked(dst []txgraph.Node, u int, inputs []int) ([]txgraph.Node, error) {
	from := len(dst)
	for _, in := range inputs {
		if in < 0 || in >= u {
			//optchain:alloc-ok the error ends the batch
			return dst[:from], fmt.Errorf("%w: transaction %d spends %d", ErrBadInput, u, in)
		}
		dst = append(dst, txgraph.Node(in))
	}
	return e.dedupe.Compact(dst, from), nil
}

// placeOneLocked validates, deduplicates, and places one transaction.
// The placer is initialized.
//
//optchain:locked e.mu held by Place/PlaceBatch.
func (e *Engine) placeOneLocked(tx StreamTx) (int, error) {
	u := e.placed
	var err error
	if e.inputBuf, err = e.appendInputsLocked(e.inputBuf[:0], u, tx.Inputs); err != nil {
		return -1, err
	}
	e.outs = append(e.outs, int32(tx.Outputs))
	s, err := e.placeGuarded(txgraph.Node(u))
	if err != nil {
		e.outs = e.outs[:u]
		return -1, err
	}
	if s < 0 || s >= e.shards {
		e.outs = e.outs[:u]
		return -1, fmt.Errorf("%w: strategy %q chose shard %d of %d for transaction %d",
			ErrBadShard, e.strategy, s, e.shards, u)
	}
	e.placed++
	e.cross.Observe(e.placer.Assignment(), e.inputBuf, s)
	return s, nil
}

// refreshStreamSnapshotLocked publishes the streaming-mode progress
// counters.
//
//optchain:locked e.mu held by Place/PlaceBatch.
func (e *Engine) refreshStreamSnapshotLocked() {
	e.snap = MetricsSnapshot{
		Issued:        e.placed,
		Total:         e.placed,
		CrossFraction: e.cross.Fraction(),
	}
}

// placeGuarded invokes the strategy, converting any panic (misbehaving
// custom strategies, exhausted Metis partitions) into an error so no panic
// escapes the exported API.
//
//optchain:locked e.mu held by placeOneLocked's callers.
func (e *Engine) placeGuarded(u txgraph.Node) (s int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("optchain: strategy %q failed on transaction %d: %v", e.strategy, u, p)
		}
	}()
	return e.placer.Place(u, e.inputBuf), nil
}

// DefaultBatchSize is how many stream transactions PlaceStream and
// PlaceWorkload group per PlaceBatch call: large enough to amortize the
// per-batch lock and snapshot refresh, small enough to keep progress fresh.
// Chunking never changes a decision.
const DefaultBatchSize = 1024

// PlaceStream drains an online transaction stream through the engine and
// returns the cumulative placement statistics. Transactions are grouped
// into PlaceBatch chunks internally; decisions are identical to calling
// Place once per transaction. On error the stats cover the transactions
// placed before the failure.
func (e *Engine) PlaceStream(txs iter.Seq[StreamTx]) (PlacementStats, error) {
	buf := make([]StreamTx, 0, DefaultBatchSize)
	var shards []int
	flush := func() error {
		var err error
		shards, err = e.PlaceBatch(buf, shards)
		buf = buf[:0]
		return err
	}
	for tx := range txs {
		buf = append(buf, tx)
		if len(buf) == DefaultBatchSize {
			if err := flush(); err != nil {
				return e.Stats(), err
			}
		}
	}
	if len(buf) > 0 {
		if err := flush(); err != nil {
			return e.Stats(), err
		}
	}
	return e.Stats(), nil
}

// newWorkloadSource builds the engine's configured scenario for an n-long
// stream — the calibrated bitcoin scenario when WithWorkload named none.
func (e *Engine) newWorkloadSource(n int) (workload.Source, error) {
	name := e.workloadName
	if name == "" {
		name = "bitcoin"
	}
	return workload.New(name, workload.Params{
		N:      n,
		Seed:   e.seed,
		Shards: e.shards,
		Knobs:  e.workloadKnobs,
	})
}

// PlaceWorkload streams n transactions (0 takes WithTxs, default 20000) of
// the engine's configured workload scenario (WithWorkload) through
// PlaceBatch and returns the cumulative placement statistics. The scenario
// is pulled one chunk at a time — nothing is materialized — and each
// batch's decisions are fed back to feedback-aware scenarios before the
// next chunk is generated. Stream positions continue from transactions
// already placed on this engine.
func (e *Engine) PlaceWorkload(n int) (PlacementStats, error) {
	if e.workloadName == "" {
		return e.Stats(), fmt.Errorf("%w: PlaceWorkload requires WithWorkload", ErrBadOption)
	}
	if n <= 0 {
		n = e.txs
	}
	if n <= 0 {
		n = defaultRunTxs
	}
	src, err := e.newWorkloadSource(n)
	if err != nil {
		return e.Stats(), err
	}
	defer workload.Close(src)
	obs, _ := src.(workload.Observer)
	base := e.Stats().Placed
	// Capacity-bounded strategies size per-shard budgets from the stream
	// hint; default it to this stream's length if nothing was configured.
	e.mu.Lock()
	if e.placer == nil && e.streamCap == 0 && e.dataset == nil {
		e.streamCap = base + n
	}
	e.mu.Unlock()
	buf := make([]StreamTx, 0, DefaultBatchSize)
	var shards []int
	var tx workload.Tx
	for placed := 0; placed < n; {
		buf = buf[:0]
		for len(buf) < DefaultBatchSize && placed+len(buf) < n && src.Next(&tx) {
			ins := make([]int, len(tx.Inputs))
			for j, in := range tx.Inputs {
				ins[j] = base + in.Tx
			}
			buf = append(buf, StreamTx{Inputs: ins, Outputs: tx.Outputs})
		}
		if len(buf) == 0 {
			break
		}
		shards, err = e.PlaceBatch(buf, shards)
		if obs != nil {
			for j, s := range shards {
				obs.Observe(placed+j, s)
			}
		}
		placed += len(shards)
		if err != nil {
			return e.Stats(), err
		}
	}
	if f, ok := src.(workload.Failer); ok {
		if err := f.Err(); err != nil {
			return e.Stats(), fmt.Errorf("optchain: workload %s: %w", src.Name(), err)
		}
	}
	return e.Stats(), nil
}

// Stats returns the streaming-mode placement statistics so far.
func (e *Engine) Stats() PlacementStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := PlacementStats{
		Placed:        e.placed,
		Cross:         e.cross.Cross,
		CrossFraction: e.cross.Fraction(),
	}
	if e.placer != nil {
		asn := e.placer.Assignment()
		st.ShardCounts = asn.Counts()
		st.MaxShardShare = asn.MaxShare()
		st.StateBytes = 4*int64(cap(e.outs)) + asn.Bytes()
		if p, ok := e.placer.(interface{ Scores() *core.T2SIndex }); ok {
			idx := p.Scores()
			st.SlabEntries = int64(idx.SlabLen())
			st.StateBytes += idx.Bytes()
			st.RetiredTxs, st.RetiredRefs = idx.Retired()
		}
	}
	return st
}

// Assignment exposes the streaming-mode placement decisions (nil before
// the first Place).
func (e *Engine) Assignment() *Assignment {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.placer == nil {
		return nil
	}
	return e.placer.Assignment()
}

// CrossShardFraction returns the streaming-mode cross-shard fraction.
func (e *Engine) CrossShardFraction() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cross.Fraction()
}

// MetricsSnapshot returns the engine's latest progress snapshot. During
// Run it is refreshed every progress tick, so other goroutines can watch a
// long simulation live; in streaming mode it reflects the placed stream.
func (e *Engine) MetricsSnapshot() MetricsSnapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snap
}

// defaultRunTxs sizes the stream when Run is called on an engine with
// neither WithDataset nor WithTxs.
const defaultRunTxs = 20_000

// Run drives one full sharded-blockchain simulation (§V): committees on a
// simulated network, clients replaying the stream at the configured rate,
// the engine's strategy placing each transaction online, and its protocol
// committing cross-shard transactions. Cancellation or deadline expiry on
// ctx aborts the run promptly with the context's error; progress is
// observable mid-run through WithProgress and MetricsSnapshot.
func (e *Engine) Run(ctx context.Context) (*SimResult, error) {
	if ctx == nil {
		// Documented nil-ctx convenience: run to completion, uncancellable.
		ctx = context.Background()
	}
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return nil, ErrRunning
	}
	e.running = true
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.running = false
		e.mu.Unlock()
	}()

	// Exactly one Source feeds the simulation: the dataset replayed in
	// memory, or the configured (default: bitcoin) scenario pulled one
	// transaction per issue event, so nothing is materialized.
	d := e.dataset
	runTxs := e.txs
	var src workload.Source
	if d != nil {
		if runTxs == 0 {
			runTxs = d.Len()
		}
		src = workload.FromDataset(d)
	} else {
		if runTxs == 0 {
			runTxs = defaultRunTxs
		}
		var err error
		src, err = e.newWorkloadSource(runTxs)
		if err != nil {
			return nil, err
		}
		// Released on every exit path: a cancelled or failed run must not
		// leave a replay component's trace file open.
		defer workload.Close(src)
	}

	part := e.metisPart
	if part == nil && strings.EqualFold(e.strategy, "Metis") {
		// Metis alone needs the whole stream up front, for its offline
		// partition.
		if d == nil {
			if e.workloadName != "" {
				return nil, fmt.Errorf("%w: the Metis strategy replays an offline partition and needs a materialized dataset, not a streaming workload", ErrBadOption)
			}
			var err error
			d, err = workload.Materialize(src, runTxs)
			if err != nil {
				return nil, err
			}
			src = workload.FromDataset(d)
		}
		var err error
		part, err = PartitionTaN(d.Slice(runTxs), e.shards, e.seed)
		if err != nil {
			return nil, err
		}
	}

	return sim.RunContext(ctx, sim.Config{
		Source:        src,
		Txs:           runTxs,
		Shards:        e.shards,
		Validators:    e.validators,
		Rate:          e.rate,
		Placer:        e.strategy,
		MetisPart:     part,
		Protocol:      e.protocol,
		Clients:       e.clients,
		Shard:         e.shardCfg,
		Seed:          e.seed,
		MaxSimTime:    e.maxSimTime,
		ValidateUTXO:  e.validateUTXO,
		Alpha:         e.alpha,
		L2SWght:       e.l2sWeight,
		ProgressEvery: e.progressEvery,
		Progress: func(s sim.Snapshot) {
			e.mu.Lock()
			e.snap = s
			e.mu.Unlock()
			if e.progress != nil {
				e.progress(s)
			}
		},
	})
}

// DatasetStream adapts a dataset to the Engine's streaming interface: one
// StreamTx per transaction, in stream order, with deduplicated inputs and
// the true output count.
func DatasetStream(d *Dataset) iter.Seq[StreamTx] {
	return func(yield func(StreamTx) bool) {
		var buf []txgraph.Node
		for i := 0; i < d.Len(); i++ {
			buf = d.InputTxNodes(i, buf)
			ins := make([]int, len(buf))
			for j, v := range buf {
				ins[j] = int(v)
			}
			if !yield(StreamTx{Inputs: ins, Outputs: d.NumOutputs(i)}) {
				return
			}
		}
	}
}
