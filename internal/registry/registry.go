// Package registry is the open extension point for placement strategies and
// cross-shard commit protocols. The built-in algorithms register themselves
// at init time under the names the paper uses ("OptChain", "Greedy",
// "omniledger", …); external packages add new ones with RegisterStrategy /
// RegisterProtocol and they become selectable everywhere a name is accepted:
// the optchain.Engine options, the experiment layer's sweep cells,
// sim.Config, and the -strategy/-protocol flags of the cmd/ binaries.
// NewStrategy and NewProtocol are the only construction path: nothing
// outside this package (bar micro-benchmarks) calls a built-in constructor.
//
// Both registries are internal/names tables: lookups are case-insensitive,
// names are drawn from [A-Za-z0-9._-], and Strategies and Protocols
// enumerate the registered spellings.
package registry

import (
	"errors"
	"fmt"

	"optchain/internal/chain"
	"optchain/internal/core"
	"optchain/internal/des"
	"optchain/internal/names"
	"optchain/internal/omniledger"
	"optchain/internal/placement"
	"optchain/internal/rapidchain"
	"optchain/internal/shard"
	"optchain/internal/simnet"
	"optchain/internal/txgraph"
)

// Typed lookup errors. Callers match them with errors.Is; a refused
// registration wraps names.ErrBadRegistration.
var (
	// ErrUnknownStrategy is returned when a strategy name has no factory.
	ErrUnknownStrategy = errors.New("unknown placement strategy")
	// ErrUnknownProtocol is returned when a protocol name has no factory.
	ErrUnknownProtocol = errors.New("unknown commit protocol")
)

// StrategyContext carries everything a placement strategy may need at
// construction time. Factories ignore fields they have no use for; zero
// numeric fields mean "use the paper's default".
type StrategyContext struct {
	// K is the number of shards (always set, >= 1).
	K int
	// N is the expected stream length — a capacity hint, not a cap.
	N int
	// OutCounts, when non-nil, supplies |Nout(v)| for the T2S divisor
	// (the number of outputs transaction v created).
	OutCounts func(v txgraph.Node) int
	// Alpha is the PageRank damping factor (0 = paper default 0.5).
	Alpha float64
	// Weight is the L2S coefficient (0 = paper default 0.01).
	Weight float64
	// Telemetry supplies client-observable shard load estimates; nil
	// degenerates latency-aware strategies to their pure-T2S form.
	Telemetry core.Telemetry
	// MetisPart holds an offline partition for replay strategies.
	MetisPart []int32
}

// StrategyFactory builds a placement strategy from a context.
type StrategyFactory func(ctx StrategyContext) (placement.Placer, error)

// CommitBackend abstracts a cross-shard commit protocol the simulator can
// drive: Submit delivers one transaction toward its output shard and calls
// done exactly once with the final outcome; Counters reports the running
// same-shard / cross-shard / abort tallies.
type CommitBackend interface {
	Submit(client simnet.NodeID, tx *chain.Transaction, outShard int, done func(*des.Simulator, bool))
	Counters() (same, cross, aborts int64)
}

// ProtocolContext carries the simulation state a protocol backend attaches
// to: the event kernel, the network, the shard committees, and the shard
// locator resolving a transaction id to the shard holding it.
type ProtocolContext struct {
	Sim    *des.Simulator
	Net    *simnet.Network
	Shards []*shard.Shard
	Locate func(chain.TxID) int
	// Optimistic enables the optimistic spend resolution of the paper's
	// replay regime (see sim.Config.ValidateUTXO).
	Optimistic bool
}

// ProtocolFactory builds a commit backend from a context.
type ProtocolFactory func(ctx ProtocolContext) (CommitBackend, error)

var (
	strategies = names.New[StrategyFactory](ErrUnknownStrategy)
	protocols  = names.New[ProtocolFactory](ErrUnknownProtocol)
)

// RegisterStrategy adds a placement strategy under the given name, under
// the rules of names.Table: case-insensitive, unique, [A-Za-z0-9._-].
func RegisterStrategy(name string, f StrategyFactory) error {
	return strategies.Register(name, f)
}

// RegisterProtocol adds a commit protocol under the given name, with the
// same rules as RegisterStrategy.
func RegisterProtocol(name string, f ProtocolFactory) error {
	return protocols.Register(name, f)
}

// Strategies returns the registered strategy names, sorted.
func Strategies() []string { return strategies.Names() }

// Protocols returns the registered protocol names, sorted.
func Protocols() []string { return protocols.Names() }

// StrategyName returns the registered spelling of a strategy name, or an
// error wrapping ErrUnknownStrategy that lists the registered names.
func StrategyName(name string) (string, error) {
	_, canon, err := strategies.Get(name)
	return canon, err
}

// ProtocolName returns the registered spelling of a protocol name, or an
// error wrapping ErrUnknownProtocol that lists the registered names.
func ProtocolName(name string) (string, error) {
	_, canon, err := protocols.Get(name)
	return canon, err
}

// NewStrategy builds the named strategy. Unknown names return an error
// wrapping ErrUnknownStrategy that lists the registered names.
func NewStrategy(name string, ctx StrategyContext) (placement.Placer, error) {
	f, _, err := strategies.Get(name)
	if err != nil {
		return nil, err
	}
	if ctx.K < 1 || ctx.K > placement.MaxShards {
		return nil, fmt.Errorf("registry: strategy %q: need 1 to %d shards, got %d", name, placement.MaxShards, ctx.K)
	}
	return f(ctx)
}

// NewProtocol builds the named protocol backend. Unknown names return an
// error wrapping ErrUnknownProtocol that lists the registered names.
func NewProtocol(name string, ctx ProtocolContext) (CommitBackend, error) {
	f, _, err := protocols.Get(name)
	if err != nil {
		return nil, err
	}
	return f(ctx)
}

// Built-in strategies: the five placement algorithms of the paper's
// evaluation, under the names its figures use.
func init() {
	strategies.Must("OptChain", func(ctx StrategyContext) (placement.Placer, error) {
		p := core.NewOptChain(core.OptChainConfig{
			K: ctx.K, N: ctx.N,
			Alpha:     ctx.Alpha,
			Weight:    ctx.Weight,
			Telemetry: ctx.Telemetry,
		})
		p.Scores().SetOutCounts(ctx.OutCounts)
		return p, nil
	})
	strategies.Must("T2S", func(ctx StrategyContext) (placement.Placer, error) {
		alpha := ctx.Alpha
		if alpha == 0 {
			alpha = core.DefaultAlpha
		}
		p := core.NewT2SPlacer(ctx.K, ctx.N, alpha, core.DefaultCapacityEps)
		p.Scores().SetOutCounts(ctx.OutCounts)
		return p, nil
	})
	strategies.Must("OmniLedger", func(ctx StrategyContext) (placement.Placer, error) {
		return placement.NewRandom(ctx.K, ctx.N), nil
	})
	strategies.Must("Greedy", func(ctx StrategyContext) (placement.Placer, error) {
		return placement.NewGreedy(ctx.K, ctx.N, core.DefaultCapacityEps), nil
	})
	strategies.Must("Metis", func(ctx StrategyContext) (placement.Placer, error) {
		if len(ctx.MetisPart) < ctx.N {
			return nil, fmt.Errorf("registry: Metis replay needs a partition covering the stream (%d entries for %d transactions)",
				len(ctx.MetisPart), ctx.N)
		}
		return placement.NewMetisReplay(ctx.K, ctx.MetisPart), nil
	})
}

// Built-in protocols: the two cross-shard commit backends of §III/§V.
func init() {
	protocols.Must("omniledger", func(ctx ProtocolContext) (CommitBackend, error) {
		p := omniledger.New(ctx.Sim, ctx.Net, ctx.Shards, ctx.Locate)
		p.Optimistic = ctx.Optimistic
		return p, nil
	})
	protocols.Must("rapidchain", func(ctx ProtocolContext) (CommitBackend, error) {
		p := rapidchain.New(ctx.Sim, ctx.Net, ctx.Shards, ctx.Locate)
		p.Optimistic = ctx.Optimistic
		return p, nil
	})
}

// Compile-time interface compliance checks.
var (
	_ CommitBackend = (*omniledger.Protocol)(nil)
	_ CommitBackend = (*rapidchain.Protocol)(nil)
)
