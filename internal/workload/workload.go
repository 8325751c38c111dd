// Package workload is the pluggable scenario layer: named transaction-stream
// generators behind a streaming Source interface, resolved through an open
// registry, the same name table as placement strategies and commit
// protocols (see internal/names). The paper evaluates placement on a single
// Bitcoin-trace-shaped stream (§V); Ren & Ward ("Transaction Placement in
// Sharded Blockchains", 2021) show placement quality diverges sharply under
// skewed and bursty workloads, so every sweep and baseline can now be run
// against scenarios engineered to stress different parts of the placement
// problem:
//
//   - bitcoin:     the calibrated Bitcoin-like generator (wraps
//     internal/dataset), matching the paper's Fig. 2 TaN statistics.
//   - hotspot:     Zipf-skewed wallet popularity with a tunable exponent —
//     a handful of wallets dominate traffic, concentrating lineage mass.
//   - burst:       Markov-modulated arrival rate — flash-crowd on/off
//     phases that stress per-shard queues and the L2S latency model.
//   - adversarial: inputs deliberately drawn from distinct, least-loaded
//     shards' recent outputs (fed back via Observer) to maximize
//     cross-shard traffic.
//   - drift:       community structure that rotates over time, invalidating
//     the stale p'(v) mass T2S accumulated for old lineages.
//   - mix:         a combinator that interleaves any registered sources by
//     weighted rate shares from a single seed (components compose
//     recursively: a mix of a mix is legal).
//   - replay:      streams a recorded .tan trace file, optionally with a
//     burst/drift arrival Modulator superimposed on the real structure.
//
// Sources are streaming: one transaction at a time, memory proportional to
// live state (never the stream length), so million-user-scale runs do not
// pre-build a Dataset. Materialize converts any source into a Dataset when
// a full stream is genuinely needed (tangen, offline tables, Metis), and
// FromDataset streams one back, so the simulator consumes nothing but a
// Source. The full spec
// grammar, every knob, and the determinism guarantees are documented in
// SCENARIOS.md at the repository root.
package workload

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"optchain/internal/dataset"
	"optchain/internal/names"
)

// Typed errors. Callers match them with errors.Is; a refused registration
// wraps names.ErrBadRegistration.
var (
	// ErrUnknownWorkload reports a scenario name with no registered factory.
	ErrUnknownWorkload = errors.New("unknown workload scenario")
	// ErrBadParam reports an invalid Params value or an unknown knob.
	ErrBadParam = errors.New("workload: invalid parameter")
	// ErrWindowExceeded reports a composite source whose bounded translation
	// window could not cover a back-reference in the stream (a mix component
	// spending an output older than its window). Raise the window knob.
	ErrWindowExceeded = errors.New("workload: translation window exceeded")
)

// Input references one output of an earlier stream transaction: output slot
// Index of the transaction at stream position Tx.
type Input struct {
	Tx    int
	Index uint32
}

// Tx is one generated transaction. Placement only needs the stream graph
// (which parents each transaction spends, how many outputs it creates); the
// simulator additionally consumes Value and Gap.
type Tx struct {
	// Inputs lists the outputs this transaction spends. Empty means
	// coinbase. Inputs never repeat an outpoint (sources must not
	// double-spend), but several may share the same parent Tx.
	Inputs []Input
	// Outputs is the number of outputs created (>= 1).
	Outputs int
	// Value is the total value of the created outputs.
	Value int64
	// Gap scales the inter-arrival time before this transaction relative to
	// the nominal 1/rate spacing. Zero means 1 (nominal); burst scenarios
	// use values < 1 during flash crowds.
	Gap float64
}

// Source is a streaming transaction generator. Implementations must be
// deterministic per Params.Seed and must never materialize the full stream:
// state is bounded by the live output set, not the stream length.
type Source interface {
	// Next fills tx with the next transaction in stream order and reports
	// whether one was produced. The Inputs slice is owned by the source and
	// reused between calls; callers copy what they keep.
	Next(tx *Tx) bool
	// Name returns the registered scenario name.
	Name() string
}

// Failer is implemented by sources that can fail mid-stream (replay hitting
// a truncated or corrupt trace). Next returning false may mean either a
// clean end of stream or a failure; drivers that care (Materialize, the
// simulator) check Err after the stream ends and surface it.
type Failer interface {
	// Err returns the failure that ended the stream, or nil.
	Err() error
}

// sourceErr returns the stream-ending failure of src, if any.
func sourceErr(src Source) error {
	if f, ok := src.(Failer); ok {
		return f.Err()
	}
	return nil
}

// Close releases any resources a source holds open (replay's trace file;
// mix closes its components). Sources needing cleanup implement io.Closer;
// Close is safe — and a no-op — on any other source, including nil.
// Drivers that may abandon a source before draining it to its end (which
// self-releases) must call it.
func Close(src Source) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// Observer is implemented by feedback-aware sources (adversarial): drivers
// report each placement decision back so the source can adapt. Drivers that
// batch placements may deliver observations with a lag; sources must
// tolerate never being observed at all (tangen materializes without any
// placement).
type Observer interface {
	// Observe reports that stream transaction i was placed in shard s.
	Observe(i, s int)
}

// Params parameterizes a scenario build. Knobs carries generator-specific
// tunables by name; factories reject unknown knob names so CLI typos
// surface immediately.
type Params struct {
	// N is the stream length (<= 0 takes DefaultN).
	N int
	// Seed makes the stream reproducible.
	Seed int64
	// Shards hints the shard count to feedback-aware scenarios
	// (<= 0 takes 16, the paper's largest configuration).
	Shards int
	// Knobs holds generator-specific tunables (see each scenario's
	// documentation for its knob names and defaults).
	Knobs map[string]float64
	// Args holds the structured arguments of composite scenarios, in spec
	// order: mix components (Key = component spec, Num = weight), replay's
	// trace path (positional) and modulator spec. Parse fills it from a spec
	// string; plain generators reject anything here that is not a numeric
	// knob already mirrored into Knobs.
	Args []Arg
}

// DefaultN is the stream length used when Params.N is unset.
const DefaultN = 100_000

func (p Params) fillDefaults() Params {
	if p.N <= 0 {
		p.N = DefaultN
	}
	if p.Shards <= 0 {
		p.Shards = 16
	}
	return p
}

// Knob returns the named knob or def when absent.
func (p Params) Knob(name string, def float64) float64 {
	if v, ok := p.Knobs[name]; ok {
		return v
	}
	return def
}

// checkKnobs rejects knob names outside the scenario's allowed set. Unknown
// names are collected and sorted so the error is identical regardless of map
// iteration order — error text reaches reports and test goldens.
func checkKnobs(scenario string, knobs map[string]float64, allowed ...string) error {
	var unknown []string
	for k := range knobs {
		if !slices.Contains(allowed, k) {
			unknown = append(unknown, k)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		sort.Strings(allowed)
		return fmt.Errorf("%w: scenario %q has no knob %q (have %s)",
			ErrBadParam, scenario, unknown[0], strings.Join(allowed, ", "))
	}
	return nil
}

// checkArgs validates a plain generator's parameters: numeric knobs must be
// in the allowed set, and no structured argument (positional values, nested
// specs, non-numeric values) may remain — those belong to composite
// scenarios like mix and replay.
func checkArgs(scenario string, p Params, allowed ...string) error {
	if err := checkKnobs(scenario, p.Knobs, allowed...); err != nil {
		return err
	}
	for _, a := range p.Args {
		if a.IsNum && simpleKey(a.Key) {
			continue // mirrored into Knobs and validated there
		}
		tok := a.Value
		if a.Key != "" {
			tok = a.Key + "=" + a.Value
		}
		sort.Strings(allowed)
		return fmt.Errorf("%w: scenario %q cannot use argument %q (it takes only numeric knobs: %s)",
			ErrBadParam, scenario, tok, strings.Join(allowed, ", "))
	}
	return nil
}

// Factory builds a scenario source from parameters.
type Factory func(p Params) (Source, error)

var scenarios = names.New[Factory](ErrUnknownWorkload)

// Register adds a scenario under the given name, making it selectable
// everywhere a workload name is accepted: optchain.WithWorkload, the
// experiment layer's sweep cells, and the -workload flags of the cmd/
// binaries. The rules are names.Table's: case-insensitive, unique,
// [A-Za-z0-9._-].
func Register(name string, f Factory) error { return scenarios.Register(name, f) }

// Names returns the registered scenario names, sorted.
func Names() []string { return scenarios.Names() }

// StandaloneNames returns the registered scenarios that build from bare
// Params — every scenario except replay, which needs a trace file. Default
// scenario sweeps cover exactly this set.
func StandaloneNames() []string {
	return slices.DeleteFunc(Names(), func(n string) bool { return n == "replay" })
}

// composite reports whether the named built-in consumes structured spec
// arguments (mix components, replay's trace path) rather than only numeric
// knobs. name is a registered spelling.
func composite(name string) bool { return name == "mix" || name == "replay" }

// New builds a scenario from a spec — either a bare registered name
// ("hotspot") or a full spec string with arguments
// ("mix:bitcoin=0.7,hotspot=0.3"); see Parse for the grammar. Spec-inline
// knobs and arguments are merged over p.Knobs/p.Args (inline values win on
// name collisions). Unknown names return an error wrapping
// ErrUnknownWorkload that names the token and lists the registered
// scenarios.
func New(spec string, p Params) (Source, error) {
	ps, err := Parse(spec)
	if err != nil {
		return nil, err
	}
	if len(ps.Knobs) > 0 {
		merged := make(map[string]float64, len(p.Knobs)+len(ps.Knobs))
		for k, v := range p.Knobs {
			merged[k] = v
		}
		for k, v := range ps.Knobs {
			merged[k] = v
		}
		p.Knobs = merged
	}
	if len(ps.Args) > 0 {
		p.Args = append(append([]Arg(nil), p.Args...), ps.Args...)
	}
	f, _, err := scenarios.Get(ps.Name)
	if err != nil {
		return nil, err
	}
	return f(p.fillDefaults())
}

// ParseSpec splits a workload spec "name[:arg,...]" into the scenario name
// and its numeric knob map — the two fields plain generators consume. The
// full grammar (mix components, replay arguments) is preserved only by
// Parse; callers that forward a spec should pass the string itself to New.
// Unknown scenario names fail here, naming the token and listing the
// registered scenarios; so does a non-numeric knob value on a plain
// scenario ("hotspot:exp=abc") — silently dropping it from the knob map
// would run the experiment on defaults.
func ParseSpec(spec string) (name string, knobs map[string]float64, err error) {
	s, err := Parse(spec)
	if err != nil {
		return "", nil, err
	}
	if !composite(s.Name) {
		for _, a := range s.Args {
			if a.IsNum && simpleKey(a.Key) {
				continue
			}
			tok := a.Value
			if a.Key != "" {
				tok = a.Key + "=" + a.Value
			}
			return "", nil, fmt.Errorf("%w: scenario %q argument %q is not a numeric name=value knob",
				ErrBadParam, s.Name, tok)
		}
	}
	return s.Name, s.Knobs, nil
}

// Materialize drains a source into a Dataset — for tangen, the offline
// placement tables, and round-trip tests. It caps at n transactions
// (<= 0 drains the source); streaming consumers (Engine.PlaceWorkload,
// simulation runs) never call it.
func Materialize(src Source, n int) (*dataset.Dataset, error) {
	if src == nil {
		return nil, fmt.Errorf("%w: nil source", ErrBadParam)
	}
	cap := n
	if cap < 0 {
		cap = 0
	}
	d := dataset.New(cap)
	var tx Tx
	var inTx []int32
	var inIdx []uint32
	for i := 0; n <= 0 || i < n; i++ {
		if !src.Next(&tx) {
			break
		}
		inTx = inTx[:0]
		inIdx = inIdx[:0]
		for _, in := range tx.Inputs {
			inTx = append(inTx, int32(in.Tx))
			inIdx = append(inIdx, in.Index)
		}
		if err := d.AppendTx(inTx, inIdx, tx.Outputs, tx.Value); err != nil {
			return nil, fmt.Errorf("workload %s: %w", src.Name(), err)
		}
	}
	if err := sourceErr(src); err != nil {
		return nil, fmt.Errorf("workload %s: %w", src.Name(), err)
	}
	return d, nil
}
