package optchain

import (
	"io"

	"optchain/internal/core"
	"optchain/internal/dataset"
	"optchain/internal/placement"
	"optchain/internal/registry"
	"optchain/internal/shard"
	"optchain/internal/sim"
	"optchain/internal/txgraph"
	"optchain/internal/workload"
)

// Re-exported types. These aliases are the public names of the library's
// main objects; the implementation lives in internal packages.
type (
	// Dataset is a generated or loaded Bitcoin-like transaction stream.
	Dataset = dataset.Dataset
	// Placer decides which shard each transaction is submitted to.
	Placer = placement.Placer
	// Assignment records placement decisions.
	Assignment = placement.Assignment
	// SimResult carries a simulation's metrics.
	SimResult = sim.Result
	// TaNGraph is the Transactions-as-Nodes network.
	TaNGraph = txgraph.Graph
	// Node indexes a transaction in the TaN network / stream order.
	Node = txgraph.Node
	// Telemetry supplies client-observable shard load estimates to the
	// L2S model.
	Telemetry = core.Telemetry
	// ShardConfig exposes the committee constants (block size, block wait,
	// consensus costs) used by Engine.Run.
	ShardConfig = shard.Config
)

// Workload-scenario types: the streaming generator layer behind
// WithWorkload and the -workload CLI flags (see internal/workload).
type (
	// WorkloadTx is one generated transaction of a scenario stream.
	WorkloadTx = workload.Tx
	// WorkloadInput references one output of an earlier stream transaction.
	WorkloadInput = workload.Input
	// WorkloadSource is the streaming generator interface scenarios
	// implement: one transaction per Next call, memory bounded by live
	// state rather than stream length.
	WorkloadSource = workload.Source
	// WorkloadObserver is implemented by feedback-aware scenarios; drivers
	// report placement decisions back through it.
	WorkloadObserver = workload.Observer
	// WorkloadParams parameterizes a scenario build (stream length, seed,
	// shard hint, generator knobs, structured spec arguments).
	WorkloadParams = workload.Params
	// WorkloadArg is one structured spec argument (mix components, replay's
	// trace path) carried by WorkloadParams.Args.
	WorkloadArg = workload.Arg
	// WorkloadFactory builds a scenario source from parameters.
	WorkloadFactory = workload.Factory
)

// RegisterWorkload adds a workload scenario to the open registry under the
// given name, making it selectable everywhere a workload name is accepted:
// WithWorkload, the experiment layer's sweep cells, and the -workload flags
// of the cmd/ binaries. The naming rules are RegisterStrategy's.
func RegisterWorkload(name string, f WorkloadFactory) error {
	return workload.Register(name, f)
}

// Workloads enumerates the registered workload scenarios, sorted.
func Workloads() []string { return workload.Names() }

// StandaloneWorkloads enumerates the scenarios that build from bare
// parameters — every scenario except the ones needing spec arguments
// (replay, which needs a trace file). Default scenario sweeps cover this
// set.
func StandaloneWorkloads() []string { return workload.StandaloneNames() }

// NewWorkloadSource builds a scenario from a bare name or a full workload
// spec ("mix:bitcoin=0.7,hotspot=0.3") — the streaming form consumers drive
// directly (Engine.PlaceWorkload and Engine.Run wrap it; use
// MaterializeWorkload for a full Dataset). See SCENARIOS.md for the
// grammar.
func NewWorkloadSource(spec string, p WorkloadParams) (WorkloadSource, error) {
	return workload.New(spec, p)
}

// ParseWorkloadSpec splits a workload spec into the scenario name and its
// numeric knob map, validating the name against the registry: unknown
// scenarios fail with an error naming the offending token and listing
// everything registered. Composite structure (mix components, replay
// arguments) is preserved only by passing the spec string itself to
// NewWorkloadSource / WithWorkload; the grammar is documented in
// SCENARIOS.md.
func ParseWorkloadSpec(spec string) (string, map[string]float64, error) {
	return workload.ParseSpec(spec)
}

// SplitWorkloadList splits a list of workload specs ("bitcoin,hotspot" or
// "mix:bitcoin=0.7,hotspot=0.3;adversarial") into its entries, sharing the
// spec grammar's paren-aware tokenizer: entries are ','-separated, or
// ';'-separated when the list contains a top-level ';'; separators nested
// inside parentheses belong to the inner spec and never split it. Every
// entry is validated; a failure names the offending fragment. This is the
// splitter behind cmd/optchain-bench -workloads.
func SplitWorkloadList(list string) ([]string, error) {
	return workload.SplitList(list)
}

// MaterializeWorkload drains a scenario (bare name or full spec) into a
// Dataset — for tangen, offline tables and partitions, and streaming
// placement through DatasetStream; Engine.Run never needs it.
// MaterializeWorkload("bitcoin", WorkloadParams{N: n, Seed: s}) is the
// calibrated Bitcoin-like stream of n transactions (Fig. 2).
func MaterializeWorkload(spec string, p WorkloadParams) (*Dataset, error) {
	src, err := workload.New(spec, p)
	if err != nil {
		return nil, err
	}
	defer workload.Close(src)
	return workload.Materialize(src, p.N)
}

// Extension-point types for RegisterStrategy / RegisterProtocol.
type (
	// StrategyContext carries what a placement strategy may need at
	// construction time (shard count, stream-length hint, telemetry, …).
	// Its OutCounts source answers only for the transaction being placed,
	// with that StreamTx's Outputs: a strategy that needs a count later
	// records it when asked.
	StrategyContext = registry.StrategyContext
	// StrategyFactory builds a placement strategy from a context.
	StrategyFactory = registry.StrategyFactory
	// ProtocolContext carries the simulation state a commit protocol
	// attaches to.
	ProtocolContext = registry.ProtocolContext
	// ProtocolFactory builds a commit backend from a context.
	ProtocolFactory = registry.ProtocolFactory
	// CommitBackend is the interface a cross-shard commit protocol
	// implements.
	CommitBackend = registry.CommitBackend
)

// RegisterStrategy adds a placement strategy to the open registry under the
// given name, making it selectable everywhere a strategy name is accepted:
// WithStrategy, the experiment layer's sweep cells, and the -strategy flag
// of cmd/optchain-sim. Names are matched case-insensitively and drawn from
// [A-Za-z0-9._-]; an empty, duplicate or ill-formed name, or a nil factory,
// returns an error wrapping ErrBadRegistration.
func RegisterStrategy(name string, f StrategyFactory) error {
	return registry.RegisterStrategy(name, f)
}

// RegisterProtocol adds a cross-shard commit protocol to the open registry,
// with the same naming rules as RegisterStrategy.
func RegisterProtocol(name string, f ProtocolFactory) error {
	return registry.RegisterProtocol(name, f)
}

// Strategies enumerates the registered placement strategies, sorted.
func Strategies() []string { return registry.Strategies() }

// Protocols enumerates the registered commit protocols, sorted.
func Protocols() []string { return registry.Protocols() }

// CheckStrategy returns nil when name resolves to a registered strategy,
// under the registry's case-insensitive matching rules, and otherwise an
// error wrapping ErrUnknownStrategy that lists the registered set.
func CheckStrategy(name string) error { _, err := registry.StrategyName(name); return err }

// CheckProtocol returns nil when name resolves to a registered protocol,
// and otherwise an error wrapping ErrUnknownProtocol that lists the
// registered set.
func CheckProtocol(name string) error { _, err := registry.ProtocolName(name); return err }

// LoadDataset decodes a stream written by (*Dataset).Encode.
func LoadDataset(r io.Reader) (*Dataset, error) { return dataset.Decode(r) }

// TraceConvertConfig parameterizes real-trace conversion (see
// ConvertTraceCSV / ConvertTraceJSON).
type TraceConvertConfig = dataset.ConvertConfig

// ConvertTraceCSV converts a txid-keyed CSV trace excerpt (published
// Bitcoin trace extracts: `txid,inputs,outputs` with '|'-separated
// txid:vout outpoints and output values) into a positionally-referenced
// Dataset ready for (*Dataset).Encode → `replay:`. It returns the number
// of out-of-excerpt inputs dropped under cfg.SkipForeign; without that
// flag a foreign reference is an error naming the txid. The pipeline is
// documented in SCENARIOS.md; cmd/tangen -from-csv drives it.
func ConvertTraceCSV(r io.Reader, cfg TraceConvertConfig) (*Dataset, int64, error) {
	return dataset.ConvertCSV(r, cfg)
}

// ConvertTraceJSON converts a JSON trace excerpt — an array of
// {"txid","inputs","outputs"} objects or a JSONL stream of them — exactly
// like ConvertTraceCSV. cmd/tangen -from-json drives it.
func ConvertTraceJSON(r io.Reader, cfg TraceConvertConfig) (*Dataset, int64, error) {
	return dataset.ConvertJSON(r, cfg)
}

// StaticTelemetry is a fixed-rate Telemetry for experimentation: Comm[i]
// and Verify[i] are shard i's λc and λv in 1/seconds.
type StaticTelemetry = core.StaticTelemetry

// PartitionTaN runs the Metis-style multilevel k-way partitioner over the
// dataset's TaN network and returns one shard id per transaction: the
// partition the "Metis" strategy replays, each part within 10% of an even
// share (the ε of the T2S and Greedy capacity bound).
func PartitionTaN(d *Dataset, k int, seed int64) ([]int32, error) {
	return registry.MetisPartition(d, k, seed)
}

// NewAssignment creates an empty placement record over k shards with a
// capacity hint of n transactions — the bookkeeping a custom strategy
// registered via RegisterStrategy embeds to satisfy the Placer interface.
// It panics for more than 65535 shards; a strategy context never carries
// that many.
func NewAssignment(k, n int) *Assignment { return placement.NewAssignment(k, n) }

// CumulativeFraction converts a degree histogram into cumulative fractions
// (Fig. 2's P(deg < d) curves).
func CumulativeFraction(hist []int64) []float64 { return txgraph.CumulativeFraction(hist) }
