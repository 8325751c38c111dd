package experiment

import (
	"context"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"
	"time"

	"optchain/internal/dataset"
	"optchain/internal/registry"
	"optchain/internal/sim"
	"optchain/internal/workload"
)

// Runner executes sweeps. It owns the shared caches: materialized datasets
// and Metis partitions are built once per key behind a singleflight, and
// completed cells are memoized by identity so overlapping sweeps (the fig3
// grid and the figs 4-10 views of it) pay for each cell once.
//
// Methods are safe for concurrent use.
type Runner struct {
	p Params

	mu    sync.Mutex
	data  map[dataKey]*datasetEntry // guarded by mu
	parts map[partKey]*partEntry    // guarded by mu
	rows  map[string]*rowEntry      // by cell ID; guarded by mu

	// graphs serializes the expensive Metis partition computations: a
	// 200k-node graph build + multilevel partition per key would multiply
	// peak memory by the number of distinct shard counts if the table
	// sweeps ran them all at once.
	graphs sync.Mutex

	// cacheOnce lazily opens the persistent row cache behind
	// Params.CacheDir on the first cell execution, so a Runner that never
	// runs a cell never touches the directory. cache and cacheErr are
	// written once inside cacheOnce.Do and read-only after.
	cacheOnce sync.Once
	cache     *rowCache
	cacheErr  error
}

type dataKey struct {
	n      int
	spec   string // resolved workload spec (Params.workloadOf)
	shards int    // the cell's shard count for a shard-aware spec, else 0
}

type partKey struct {
	n, k int
	spec string
}

type datasetEntry struct {
	once sync.Once
	d    *dataset.Dataset
	err  error
}

type partEntry struct {
	once sync.Once
	part []int32
	err  error
}

// rowEntry is one cell's singleflight slot: the first caller owns the
// execution, concurrent callers of the same cell wait on done. Failed
// executions are removed from the map by their owner (under mu, before
// done closes), so a cancellation does not poison the cache — the next
// caller re-executes.
type rowEntry struct {
	done chan struct{}
	row  Row
	err  error
}

// NewRunner prepares a runner with the given parameters (zero values take
// defaults; see Params).
func NewRunner(p Params) *Runner {
	p.fillDefaults()
	return &Runner{
		p:     p,
		data:  make(map[dataKey]*datasetEntry),
		parts: make(map[partKey]*partEntry),
		rows:  make(map[string]*rowEntry),
	}
}

// Params returns the effective (default-filled) parameters.
func (r *Runner) Params() Params { return r.p }

// dataset returns (materializing once) the first n transactions of the
// workload spec ("" is the runner's default, Params.WorkloadLabel) as a
// cell over k shards sees them. The cache is keyed by the resolved spec,
// so "" and its spelled-out default share one stream, and by k only for a
// shard-aware spec (workload.ShardAware: adversarial aims at the shards),
// so one stream serves every k of the others. Generation is deterministic
// per key and Seed, so concurrent callers always observe the same stream.
func (r *Runner) dataset(n, k int, spec string) (*dataset.Dataset, error) {
	key := dataKey{n: n, spec: r.p.workloadOf(spec)}
	if workload.ShardAware(key.spec) {
		key.shards = k
	}
	r.mu.Lock()
	e, ok := r.data[key]
	if !ok {
		e = &datasetEntry{}
		r.data[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		src, err := workload.New(key.spec, workload.Params{N: n, Seed: r.p.Seed, Shards: key.shards})
		if err != nil {
			e.err = err
			return
		}
		defer workload.Close(src)
		e.d, e.err = workload.Materialize(src, n)
	})
	return e.d, e.err
}

// partition returns (computing once) a Metis k-way partition of the TaN
// network of dataset(n, spec), keyed like it by the resolved spec.
// Distinct keys partition one at a time (see graphs); each partition is
// deterministic per Seed.
func (r *Runner) partition(n, k int, spec string) ([]int32, error) {
	key := partKey{n: n, k: k, spec: r.p.workloadOf(spec)}
	r.mu.Lock()
	e, ok := r.parts[key]
	if !ok {
		e = &partEntry{}
		r.parts[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		d, err := r.dataset(n, k, key.spec)
		if err != nil {
			e.err = err
			return
		}
		r.graphs.Lock()
		defer r.graphs.Unlock()
		e.part, e.err = registry.MetisPartition(d, k, r.p.Seed)
	})
	return e.part, e.err
}

// Cell executes (or returns the cached row for) one cell. Concurrent
// calls for the same cell — including from concurrently streamed
// overlapping sweeps — execute it once: later callers block on the first
// execution and share its row. The row's sweep identity fields (Sweep,
// Index) are zero; Stream fills them per sweep.
func (r *Runner) Cell(ctx context.Context, c Cell) (Row, error) {
	c, err := resolveCell(c, r.p)
	if err != nil {
		return Row{}, err
	}
	id := c.id(r.p)
	for {
		r.mu.Lock()
		e, ok := r.rows[id]
		if !ok {
			e = &rowEntry{done: make(chan struct{})}
			r.rows[id] = e
			r.mu.Unlock()
			row, err := r.cachedExecute(ctx, c, id)
			r.mu.Lock()
			if err != nil {
				// Do not poison the cache (the error may be this caller's
				// cancellation); the next caller re-executes.
				delete(r.rows, id)
			}
			e.row, e.err = row, err
			r.mu.Unlock()
			close(e.done)
			return row, err
		}
		r.mu.Unlock()
		select {
		case <-e.done:
		case <-ctx.Done():
			return Row{}, ctx.Err()
		}
		if e.err == nil {
			row := e.row
			row.WallSeconds = 0 // served from cache; no host time spent
			return row, nil
		}
		// The owning execution failed and removed its entry; retry (the
		// failure may have been the owner's cancellation, not ours).
		if err := ctx.Err(); err != nil {
			return Row{}, err
		}
	}
}

// rowCacheHandle lazily opens the persistent row cache (nil when
// Params.CacheDir is unset). An unusable cache — corrupt line, parameter
// mismatch — is a loud ErrBadCache on every cell, never a silent
// recompute.
func (r *Runner) rowCacheHandle() (*rowCache, error) {
	if r.p.CacheDir == "" {
		return nil, nil
	}
	r.cacheOnce.Do(func() {
		r.cache, r.cacheErr = openRowCache(r.p.CacheDir, r.p)
	})
	return r.cache, r.cacheErr
}

// Close releases the persistent row-cache append handle, if one was
// opened. Runners without Params.CacheDir need no cleanup; Close is safe
// to call on them (and more than once).
func (r *Runner) Close() error {
	cache, err := r.rowCacheHandle()
	if err != nil || cache == nil {
		return nil
	}
	return cache.Close()
}

// cachedExecute serves one cell from the persistent row cache when
// enabled, and otherwise runs it, stamps its identity and persists it.
// Served rows are flat data: WallSeconds is zero and Result is nil (see
// Params.CacheDir).
func (r *Runner) cachedExecute(ctx context.Context, c Cell, id string) (Row, error) {
	cache, err := r.rowCacheHandle()
	if err != nil {
		return Row{}, err
	}
	if cache != nil {
		if row, ok := cache.get(id); ok {
			row.Cell = c
			return row, nil
		}
	}
	start := time.Now() // telemetry: WallSeconds reports cost, never feeds a decision
	row, err := r.runCell(ctx, c)
	if err != nil {
		return Row{}, err
	}
	row.ID = id
	row.Cell = c
	row.WallSeconds = time.Since(start).Seconds() // telemetry only
	if cache != nil {
		// A row the cache cannot persist would silently vanish from the
		// resume set; fail the cell instead.
		if err := cache.put(row); err != nil {
			return Row{}, err
		}
	}
	return row, nil
}

// runCell dispatches one cell by kind.
func (r *Runner) runCell(ctx context.Context, c Cell) (Row, error) {
	switch c.Kind {
	case KindPlacement:
		return r.runPlacementCell(ctx, c)
	default:
		return r.runSimCell(ctx, c)
	}
}

// queueSampleEvery scales the queue-sampling cadence with the run length:
// the simulator's 10 s default suits 10M-transaction runs; shorter streams
// need proportionally finer samples to draw the same Fig. 6 curves.
func (r *Runner) queueSampleEvery(n int, rate float64) time.Duration {
	span := time.Duration(float64(n) / rate * float64(time.Second))
	return max(span/25, 500*time.Millisecond)
}

// runSimCell executes one end-to-end simulation cell.
func (r *Runner) runSimCell(ctx context.Context, c Cell) (Row, error) {
	proto := c.Protocol
	if proto == "" {
		proto = r.p.Protocol
	}
	cfg := sim.Config{
		Shards:     c.Shards,
		Validators: r.p.Validators,
		Rate:       c.Rate,
		Placer:     c.Strategy,
		Protocol:   proto,
		Seed:       r.p.Seed,
		MaxSimTime: 20 * time.Minute,
		Alpha:      c.Alpha,
		L2SWght:    c.L2SWeight,
	}
	txs := c.Txs
	if txs == 0 {
		// Default-length cells scale the queue-sampling cadence with the
		// run length; explicit-Txs cells (the Fig. 11 saturation runs) keep
		// the simulator's fixed default.
		txs = r.p.N
		cfg.QueueSampleEvery = r.queueSampleEvery(txs, c.Rate)
	}

	// Every cell pulls its workload live, one transaction per issue event,
	// with the source's arrival spacing. A Metis cell takes only its offline
	// partition from a materialization of the same spec; the simulator gives
	// its source no placement feedback, so the live stream is the one that
	// was partitioned.
	spec := r.p.workloadOf(c.Workload)
	if c.Strategy == "Metis" {
		part, err := r.partition(txs, c.Shards, spec)
		if err != nil {
			return Row{}, err
		}
		cfg.MetisPart = part
	}
	src, err := workload.New(spec, workload.Params{
		N:      txs,
		Seed:   r.p.Seed,
		Shards: c.Shards,
	})
	if err != nil {
		return Row{}, err
	}
	// Released on every exit path: a cancelled or failed cell must not
	// leave a replay component's trace file open.
	defer workload.Close(src)
	cfg.Source = src
	cfg.Txs = txs

	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Kind:          KindSim,
		Strategy:      c.Strategy,
		Protocol:      proto,
		Shards:        c.Shards,
		Rate:          c.Rate,
		Workload:      spec,
		Txs:           txs,
		Tag:           c.Tag,
		Total:         res.Total,
		Committed:     res.Committed,
		SteadyTPS:     res.SteadyTPS,
		ThroughputTPS: res.ThroughputTPS,
		AvgLatencySec: res.AvgLatency,
		MaxLatencySec: res.MaxLatency,
		P50Sec:        res.P50,
		P99Sec:        res.P99,
		Retries:       res.Retries,
		Aborts:        res.Aborts,
		PeakQueue:     res.Queues.PeakMax(),
		CrossFraction: res.CrossFraction,
		Result:        res,
	}, nil
}

// Stream executes the sweep, delivering one Row per cell in canonical cell
// order as the completion frontier advances. Cells fan out across the
// worker budget; every cell seeds its own RNG from Params.Seed, so rows
// are identical to a sequential sweep. The first cell error — or a context
// cancellation — is yielded as the final (Row{}, error) pair and ends the
// sequence. Breaking out of the loop cancels the remaining cells and waits
// for in-flight workers before returning, so no goroutines outlive the
// iteration.
func (r *Runner) Stream(ctx context.Context, s Sweep) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		if ctx == nil {
			// Documented nil-ctx convenience: run the sweep uncancellable.
			ctx = context.Background()
		}
		cells, err := s.Expand(r.p)
		if err != nil {
			yield(Row{}, err)
			return
		}
		cctx, cancel := context.WithCancel(ctx)
		n := len(cells)
		rows := make([]Row, n)
		errs := make([]error, n)
		panics := make([]any, n)
		done := make([]chan struct{}, n)
		for i := range done {
			done[i] = make(chan struct{})
		}
		var wg sync.WaitGroup
		// Defers run LIFO: cancel MUST run before wg.Wait, so that breaking
		// out of the iteration (or a cell error) stops the remaining cells
		// instead of silently executing the whole sweep while we wait.
		defer wg.Wait() // no goroutine outlives the iteration
		defer cancel()
		var next atomic.Int64
		next.Store(-1)
		workers := r.p.Workers
		if workers > n {
			workers = n
		}
		if workers < 1 {
			workers = 1
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1))
					if i >= n {
						return
					}
					if err := cctx.Err(); err != nil {
						errs[i] = err
					} else {
						// A panicking cell must not kill the process from a
						// worker goroutine: capture it and re-raise on the
						// consuming goroutine once this cell's done channel
						// closes (close is the happens-before edge).
						func() {
							defer func() {
								if p := recover(); p != nil {
									panics[i] = p
								}
							}()
							rows[i], errs[i] = r.Cell(cctx, cells[i])
						}()
					}
					close(done[i])
				}
			}()
		}
		for i := 0; i < n; i++ {
			// Prefer an already-completed row over a simultaneous
			// cancellation: a two-way select picks randomly when both are
			// ready, and the partial row set delivered under cancellation
			// must be deterministic for the rows that did finish.
			select {
			case <-done[i]:
			default:
				select {
				case <-done[i]:
				case <-ctx.Done():
					yield(Row{}, ctx.Err())
					return
				}
			}
			if panics[i] != nil {
				// Re-raise a captured worker panic on the consuming
				// goroutine — forwarding, not a new failure mode.
				panic(panics[i])
			}
			if errs[i] != nil {
				yield(Row{}, fmt.Errorf("sweep %q cell %d (%s): %w", s.Name, i, cells[i].id(r.p), errs[i]))
				return
			}
			row := rows[i]
			row.Sweep = s.Name
			row.Index = i
			if !yield(row, nil) {
				return
			}
		}
	}
}

// Collect drains Stream into a slice, in canonical cell order.
func (r *Runner) Collect(ctx context.Context, s Sweep) ([]Row, error) {
	var out []Row
	for row, err := range r.Stream(ctx, s) {
		if err != nil {
			return out, err
		}
		out = append(out, row)
	}
	return out, nil
}

// Report streams the sweep into a reporter: Begin, one Row call per result
// as it completes, then End. End runs even when the sweep fails or is
// cancelled mid-flight, so partially complete output is flushed — the rows
// delivered before the failure remain valid data.
func (r *Runner) Report(ctx context.Context, s Sweep, rep Reporter) error {
	if err := rep.Begin(s, r.p); err != nil {
		// End still runs — the interface promises it on every failure path,
		// and buffered reporters release resources there.
		_ = rep.End()
		return err
	}
	var first error
	for row, err := range r.Stream(ctx, s) {
		if err != nil {
			first = err
			break
		}
		if err := rep.Row(row); err != nil {
			first = err
			break
		}
	}
	if err := rep.End(); err != nil && first == nil {
		first = err
	}
	return first
}
