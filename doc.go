// Package optchain is a from-scratch reproduction of "OptChain: Optimal
// Transactions Placement for Scalable Blockchain Sharding" (Nguyen, Nguyen,
// Dinh, Thai — ICDCS 2019).
//
// OptChain is a sharding-agnostic, client-side strategy for placing UTXO
// transactions into shards. Instead of hashing a transaction to a random
// shard — which makes >94% of transactions cross-shard and doubles their
// confirmation time — OptChain scores every shard with:
//
//   - T2S (Transaction-to-Shard): an incrementally maintained,
//     PageRank-style fitness over the Transactions-as-Nodes (TaN) DAG,
//     measuring how related the new transaction is to each shard's history;
//   - L2S (Latency-to-Shard): a queueing estimate of the confirmation
//     latency each placement would suffer, derived from client-observable
//     telemetry (sampled round-trip times, recent consensus latency, queue
//     depths).
//
// The transaction goes to the shard maximizing the Temporal Fitness
// p(u)[j] − w·E(j) (Alg. 1 of the paper).
//
// # The Engine
//
// The package's entry point is the Engine, built with functional options.
// It exposes the paper's algorithm the way it is deployed — as an online
// stream processor, one placement decision per arriving transaction:
//
//	eng, err := optchain.New(
//		optchain.WithStrategy("OptChain"),
//		optchain.WithShards(16),
//	)
//	if err != nil { ... }
//	shard, err := eng.Place(optchain.StreamTx{Inputs: []int{3, 7}, Outputs: 2})
//
// Outputs is how many outputs the transaction creates. It is the divisor of
// the T2S score its spenders inherit, and the point at which the engine
// forgets it: once as many distinct transactions have spent from it as it
// declared outputs, nothing in a valid UTXO stream can name it again, so
// its score vector is dropped and its slot reused (state and snapshots then
// follow the unspent set, not the stream's length; what stays of a retired
// transaction is its decision and a clear bit). The count itself is kept
// once, in the T2S index's record of the transaction. Outputs: 0 means
// unknown and opts the transaction out: it is scored by spenders seen so
// far and never retired; a negative count, or one above math.MaxInt32, is
// refused with ErrBadInput. A later reference to a retired transaction — a
// stream spending more outputs than were declared — is still placed and
// still counts as cross-shard where it is, but inherits no score from that
// parent, and PlacementStats.RetiredRefs counts it.
//
// Whole streams route through PlaceStream; a generated or loaded Dataset
// adapts with DatasetStream:
//
//	stats, err := eng.PlaceStream(optchain.DatasetStream(data))
//	fmt.Println(stats.CrossFraction) // ≈0.17 at 16 shards, vs ≈0.95 random
//
// High-throughput feeders hand the Engine whole slices at a time with
// PlaceBatch, which makes exactly the decisions the equivalent Place
// sequence would while paying the lock, strategy lookup, and metrics
// refresh once per batch; results append into a caller-reused slice:
//
//	shards, err := eng.PlaceBatch(txs, shards)
//
// (PlaceStream batches internally in chunks of DefaultBatchSize, so it gets
// the same amortization.) Placement is serial: every decision reads where
// the transaction's inputs were placed.
//
// The placement and simulation hot paths are allocation-free steady-state;
// see PERFORMANCE.md for the inventory, baseline numbers, why placement is
// serial, and profiling flags.
//
// Engine.Run drives the paper's full end-to-end evaluation (§V) — sharded
// committees on a simulated network, clients replaying the stream at a
// configured rate, a cross-shard commit protocol — under a
// context.Context, so long runs cancel cleanly; WithProgress and
// MetricsSnapshot observe a run while it executes:
//
//	res, err := eng.Run(ctx)
//	fmt.Println(res.AvgLatency, res.ThroughputTPS)
//
// # Workload scenarios
//
// The paper evaluates on a single Bitcoin-trace-shaped stream; this package
// adds a pluggable scenario layer so placement is measured where it wins
// AND where it breaks. WithWorkload selects a workload spec; scenarios are
// streaming — Run pulls one transaction per issue event and PlaceWorkload
// chunks through PlaceBatch, so million-user-scale streams never
// materialize a Dataset:
//
//	eng, _ := optchain.New(optchain.WithWorkload("hotspot", map[string]float64{"exp": 1.5}))
//	stats, err := eng.PlaceWorkload(1_000_000)
//
// The built-in scenarios, with the placement stress each one targets:
//
//   - "bitcoin": the calibrated generator (Fig. 2 TaN statistics) — the
//     paper's baseline workload.
//   - "hotspot": Zipf-skewed wallet popularity (knobs: wallets, exp,
//     maxins, fanout) — concentrated lineage mass; stresses the capacity
//     bound against the T2S affinity.
//   - "burst": Markov-modulated flash crowds (knobs: onmean, offmean,
//     boost, fanout) — arrival-rate spikes on a tight lineage cluster;
//     stresses per-shard queues and the L2S latency term.
//   - "adversarial": feedback-driven attack (knobs: spread, fanout) —
//     inputs drawn from distinct least-loaded shards' recent outputs, a
//     placement-independent cross-shard floor. Implements
//     WorkloadObserver; drivers feed placement decisions back.
//   - "drift": rotating community structure (knobs: communities, period,
//     maxins, fanout) — periodically invalidates accumulated p'(v) mass;
//     stresses adaptation speed of history-weighted fitness.
//   - "mix": the combinator — weighted rate shares of any registered
//     sources, deterministically interleaved from one seed, recursively
//     composable ("mix:bitcoin=0.7,hotspot=0.2,adversarial=0.1").
//   - "replay": streams a recorded .tan trace through the incremental
//     decoder, optionally superimposing a burst/drift arrival modulator
//     on the real structure ("replay:trace.tan,mod=(burst:boost=4)").
//
// Spec strings pass through WithWorkload, NewWorkloadSource, and every
// -workload flag unchanged; SCENARIOS.md at the repository root documents
// the grammar (EBNF), every knob, the determinism guarantees, and a
// writing-your-own-Source walkthrough.
//
// RegisterWorkload adds new scenarios; Workloads enumerates them
// (StandaloneWorkloads excludes the ones needing spec arguments). Every
// scenario is selectable by the -workload flags of optchain-sim, tangen,
// and tanstats, drives every optchain-bench figure/table/ablation sweep
// via -workload, and is swept by the "scenarios" experiment, whose rows
// (each recording its workload spec) are pinned by golden fixtures.
// MaterializeWorkload converts any scenario into a Dataset when a
// full stream is genuinely needed (offline tables and partitions, or
// placing it through DatasetStream); Engine.Run and PlaceWorkload stream.
//
// # Experiments: declarative sweeps
//
// The sibling package optchain/experiment is the public sweep layer: a
// declarative Sweep value (axes over shards, rate, strategy, protocol, and
// full workload specs — or an explicit cell list) executed by a Runner
// that streams typed Rows as cells complete into pluggable Reporter sinks
// (text, jsonl and csv are built in):
//
//	r := experiment.NewRunner(experiment.Params{N: 60_000, Seed: 1})
//	sweep := experiment.Sweep{
//	    Name:       "latency",
//	    Strategies: []string{"OptChain", "OmniLedger"},
//	    Shards:     []int{4, 8, 16},
//	    Rates:      []float64{2000, 4000, 6000},
//	}
//	for row, err := range r.Stream(ctx, sweep) { ... }
//
// Rows arrive in canonical cell order with stable identity regardless of
// worker scheduling; cancelling the context stops the sweep promptly with
// partial rows flushed. Every simulation cell pulls its workload one
// transaction per issue event, so `mix:` and `replay:` arrival modulation
// and adversarial feedback bend the figure grids (a Metis cell takes its
// offline partition from a materialization of the same spec, and its
// source sees no placements: an offline partition cannot answer an
// adaptive attacker). The paper's
// own figures, tables, and ablations are sweep definitions over this API,
// registered by name (experiment.RegisterSweep) and runnable from
// cmd/optchain-bench via -sweep/-reporter/-list-sweeps; its `fidelity`
// reporter prints every figure the paper quotes beside our value and the
// ratio (Fig. 2's TaN census is cmd/tanstats). See the experiment package
// documentation and PERFORMANCE.md's "Running experiments".
//
// # State snapshots and serving
//
// Engine.WriteSnapshot serializes the engine's complete decision state —
// configuration fingerprint, the strategy's placement.Snapshotter section,
// and a trailing checksum — and Engine.ReadSnapshot restores it into a
// freshly constructed engine of identical configuration, after which
// every subsequent decision is bit-identical to the uninterrupted run's
// (ErrBadSnapshot / ErrSnapshotUnsupported report damage and
// non-snapshottable strategies). The stream (format version 6, laid out
// in snapshot.go) is the engine's columns written once through a small
// buffer: the packed decisions, a bitmap of the transactions still live
// (not retired), counts as uvarints, per-record columns only for the live
// transactions, and slab shard ids a byte wide up to 255 shards;
// SnapshotSize gives its exact length beforehand, it may not exceed 1 GiB,
// and a stream of versions 1 to 5 is refused, not converted. The sibling package optchain/serve builds the
// placement-router deployment on top: an HTTP gateway (cmd/optchain-serve)
// that places a request body a window at a time —
// on the caller's goroutine when idle, else coalesced across clients into
// PlaceBatch calls through a bounded queue — with line-counted admission
// (429 + Retry-After), Prometheus /metrics, and periodic atomic
// snapshots restored on restart — see PERFORMANCE.md's
// "Serving placement".
//
// # Registries
//
// Strategies, protocols, workload scenarios, reporters, and named sweeps
// resolve by name through one name table (internal/names), so all five
// follow the same rules: names match case-insensitively, are drawn from
// [A-Za-z0-9._-] (the workload spec grammar, the -strategies list and cell
// IDs use every other character as a separator), and are registered once
// with a non-nil factory; a refused registration wraps ErrBadRegistration,
// and an unknown name fails with the registry's sentinel
// (ErrUnknownStrategy, ErrUnknownProtocol, ErrUnknownWorkload, …) listing
// the registered set. RegisterStrategy, RegisterProtocol and
// RegisterWorkload add new ones, which become selectable everywhere a name
// is accepted — WithStrategy/WithProtocol/WithWorkload, the experiment
// package's sweep cells, and the -strategy/-protocol/-workload flags of the
// cmd/ binaries; Strategies, Protocols and Workloads enumerate what is
// registered, and CheckStrategy/CheckProtocol validate a name. The
// experiment package's RegisterReporter and RegisterSweep are tables of the
// same kind. The built-ins are the paper's: "OptChain", "T2S", "Greedy",
// "Metis", and the hash-random "OmniLedger" placement, over the
// "omniledger" and "rapidchain" commit backends.
//
// Constructors validate eagerly and return typed errors
// (ErrUnknownStrategy, ErrBadShard, ErrBadOption, …) — no exported call
// panics.
//
// The module contains everything needed to reproduce the paper end to end:
// a calibrated Bitcoin-like transaction stream generator, the TaN graph, a
// multilevel k-way graph partitioner (the paper's Metis baseline), the
// Greedy and hash-random baselines, a discrete-event simulation of sharded
// blockchains (committees, PBFT-style block consensus over a
// latency/bandwidth network model), the OmniLedger atomic-commit and
// RapidChain yanking cross-shard protocols, and the experiment sweep layer
// that regenerates every table and figure of the paper's evaluation
// (cmd/optchain-bench). Real Bitcoin trace excerpts convert to the stream
// format with ConvertTraceCSV / ConvertTraceJSON (cmd/tangen
// -from-csv/-from-json) and feed the replay scenario directly.
//
// The runnable programs under cmd/ show the full surface. The worked
// examples are this package's Example functions, which go test runs and
// checks: Example is the canonical snippet, ExampleEngine_Run the §V
// simulation, ExamplePartitionTaN the offline Metis comparison,
// ExampleWithTelemetry wallet placement, ExampleWithWorkload scenario
// composition and trace replay, and the experiment package's
// ExampleRunner_Stream a streamed sweep. README.md,
// SCENARIOS.md, and PERFORMANCE.md at the repository root cover the
// project-level view, the workload spec grammar, and the performance
// inventory respectively.
package optchain
