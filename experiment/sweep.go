package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"optchain/internal/registry"
	"optchain/internal/workload"
)

// Kind selects what a cell measures.
type Kind string

const (
	// KindSim is an end-to-end DES simulation cell (figures 3-11): committees
	// on a simulated network, a live commit protocol, latency and throughput
	// metrics.
	KindSim Kind = "sim"
	// KindPlacement is an offline placement-replay cell (Tables I-II,
	// ablation A2): the whole stream placed into empty shards, counting
	// cross-shard transactions — no network, no protocol.
	KindPlacement Kind = "placement"
)

// Cell is one grid point of a sweep — the unit of execution and caching.
// Its identity (ID) is a pure function of its fields, so row identity is
// deterministic regardless of worker scheduling.
type Cell struct {
	// Kind defaults to KindSim.
	Kind Kind `json:"kind"`
	// Strategy is the placement strategy registry name. Placement cells
	// accept the offline vocabulary: Metis, Greedy, OmniLedger, T2S.
	Strategy string `json:"strategy"`
	// Protocol is the commit backend registry name (sim cells only; empty
	// takes the runner's Params.Protocol).
	Protocol string `json:"protocol,omitempty"`
	// Shards is the shard count.
	Shards int `json:"shards"`
	// Rate is the offered load in tx/s (sim cells only).
	Rate float64 `json:"rate,omitempty"`
	// Workload is the workload spec driving the cell (empty takes the
	// runner's Params.Workload, defaulting to the calibrated generator).
	Workload string `json:"workload,omitempty"`
	// Txs overrides the stream length. Zero means the runner default
	// (Params.N for sim cells, Params.TableN for placement cells) with
	// the queue-sampling cadence scaled to the run length; explicit values run
	// with the simulator's fixed defaults (the Fig. 11 saturation regime).
	Txs int `json:"txs,omitempty"`
	// Warm makes a placement cell replay the Metis partition for the first
	// Warm transactions before handing the stream to Strategy — Table II's
	// warm-start setting. Placement cells only; a sim cell with Warm set is
	// rejected rather than silently ignoring it.
	Warm int `json:"warm,omitempty"`
	// Alpha overrides the PageRank damping factor for T2S-family scoring
	// (0 = the paper's 0.5). Applies to both cell kinds.
	Alpha float64 `json:"alpha,omitempty"`
	// L2SWeight overrides the Temporal Fitness L2S coefficient (0 = the
	// paper's 0.01). Sim cells only; offline placement has no latency
	// term, so a placement cell with L2SWeight set is rejected.
	L2SWeight float64 `json:"l2s_weight,omitempty"`
	// Streamed drives the cell from a streaming workload source instead of
	// a materialized dataset. The Metis strategy cannot stream (it replays
	// an offline partition of the full graph); such cells materialize and
	// report Streamed=false in their row.
	Streamed bool `json:"streamed,omitempty"`
	// Tag distinguishes otherwise-identical variants in cell IDs.
	Tag string `json:"tag,omitempty"`
	// NoCache forces the cell to execute even when an identical cell is
	// cached — for wall-clock measurements.
	NoCache bool `json:"-"`
}

// ID returns the cell's stable identity string — a pure function of the
// cell's fields and the runner defaults it resolves against. Two cells with
// equal IDs produce identical rows under the same Params.
func (c Cell) id(p Params) string {
	var b strings.Builder
	kind := c.Kind
	if kind == "" {
		kind = KindSim
	}
	b.WriteString(string(kind))
	b.WriteByte(':')
	b.WriteString(c.Strategy)
	if kind == KindSim {
		proto := c.Protocol
		if proto == "" {
			proto = p.Protocol
		}
		b.WriteByte('/')
		b.WriteString(proto)
	}
	fmt.Fprintf(&b, "/k%d", c.Shards)
	if kind == KindSim {
		fmt.Fprintf(&b, "/r%s", strconv.FormatFloat(c.Rate, 'g', -1, 64))
	}
	wl := c.Workload
	if wl == "" {
		wl = p.WorkloadLabel()
	}
	b.WriteString("/wl=")
	b.WriteString(wl)
	if c.Txs != 0 {
		fmt.Fprintf(&b, "/n%d", c.Txs)
	} else if kind == KindSim {
		// Default-length sim cells scale the queue-sampling cadence (and so
		// peak_queue) with Params.N; an explicit Txs of the same value runs
		// the fixed cadence, so the two must never share a cache slot.
		fmt.Fprintf(&b, "/n%d/scaledwin", p.N)
	} else {
		fmt.Fprintf(&b, "/n%d", p.TableN)
	}
	if c.Warm > 0 {
		fmt.Fprintf(&b, "/warm%d", c.Warm)
	}
	if c.Alpha != 0 {
		fmt.Fprintf(&b, "/alpha%s", strconv.FormatFloat(c.Alpha, 'g', -1, 64))
	}
	if c.L2SWeight != 0 {
		fmt.Fprintf(&b, "/w%s", strconv.FormatFloat(c.L2SWeight, 'g', -1, 64))
	}
	if c.effectiveStreamed() {
		b.WriteString("/streamed")
	}
	if c.Tag != "" {
		b.WriteString("/tag=")
		b.WriteString(c.Tag)
	}
	return b.String()
}

// effectiveStreamed reports whether the cell actually streams: Metis
// replays an offline partition of the materialized graph, so Metis cells
// materialize even inside a streaming sweep.
func (c Cell) effectiveStreamed() bool {
	return c.Streamed && !strings.EqualFold(c.Strategy, "Metis")
}

// Sweep is a declarative experiment grid: either axis lists expanded as a
// cross product in canonical order (workloads, strategies, protocols,
// shards, rates, alphas, weights — outermost first), or an
// explicit Cells list. The zero value of every axis inherits the runner's Params default.
type Sweep struct {
	// Name labels the sweep in reports and row identity.
	Name string `json:"name"`
	// Description is a one-line summary (shown by -list-sweeps).
	Description string `json:"description,omitempty"`

	// Kind applies to every generated cell (default KindSim).
	Kind Kind `json:"kind,omitempty"`
	// Strategies is the strategy axis (default: Params.Strategies, falling
	// back to the paper's four; placement sweeps have no implicit default
	// and must set it).
	Strategies []string `json:"strategies,omitempty"`
	// Protocols is the protocol axis (default: {Params.Protocol}).
	Protocols []string `json:"protocols,omitempty"`
	// Shards is the shard-count axis.
	Shards []int `json:"shards,omitempty"`
	// Rates is the offered-load axis (sim sweeps).
	Rates []float64 `json:"rates,omitempty"`
	// Workloads is the workload-spec axis (default: {Params.Workload}).
	Workloads []string `json:"workloads,omitempty"`
	// Alphas is the damping-factor axis for placement sweeps (0 entries
	// mean the paper default).
	Alphas []float64 `json:"alphas,omitempty"`
	// L2SWeights is the Temporal Fitness coefficient axis for sim sweeps.
	L2SWeights []float64 `json:"l2s_weights,omitempty"`

	// Txs, Warm, Tag, and Streaming apply to every generated cell (see the
	// Cell fields of the same names). Streaming additionally defaults to
	// Params.Streaming.
	Txs       int    `json:"txs,omitempty"`
	Warm      int    `json:"warm,omitempty"`
	Tag       string `json:"tag,omitempty"`
	Streaming bool   `json:"streaming,omitempty"`

	// Cells, when non-empty, is the explicit cell list. It must not be
	// combined with the axis or cell-default fields above — every knob of
	// an explicit cell lives on the cell, and a sweep-level value that
	// silently did nothing would be a misconfiguration trap, so Expand
	// rejects the combination. (Params.Streaming still applies only through
	// per-cell Streamed for explicit cells.)
	Cells []Cell `json:"cells,omitempty"`

	// Uncached forces every cell to execute even when cached — for
	// wall-clock measurements.
	Uncached bool `json:"-"`
}

// placementStrategies is the offline placement vocabulary of Tables I-II.
var placementStrategies = map[string]bool{
	"metis": true, "greedy": true, "omniledger": true, "t2s": true,
}

// validCell validates one cell against the open registries.
func validCell(c Cell, p Params) error {
	kind := c.Kind
	if kind == "" {
		kind = KindSim
	}
	switch kind {
	case KindSim:
		if !registry.HasStrategy(c.Strategy) {
			return fmt.Errorf("%w: unknown strategy %q (registered: %s)",
				ErrBadSweep, c.Strategy, strings.Join(registry.Strategies(), ", "))
		}
		proto := c.Protocol
		if proto == "" {
			proto = p.Protocol
		}
		if !registry.HasProtocol(proto) {
			return fmt.Errorf("%w: unknown protocol %q (registered: %s)",
				ErrBadSweep, proto, strings.Join(registry.Protocols(), ", "))
		}
		if c.Rate <= 0 {
			return fmt.Errorf("%w: cell %s: rate must be positive", ErrBadSweep, c.Strategy)
		}
		if c.Warm > 0 {
			// Silently ignoring a knob the kind cannot apply would let the
			// row's identity claim a parameter that never took effect.
			return fmt.Errorf("%w: Warm applies to placement cells, not sim cells", ErrBadSweep)
		}
	case KindPlacement:
		if !placementStrategies[strings.ToLower(c.Strategy)] {
			return fmt.Errorf("%w: placement cells compare the offline vocabulary (Metis, Greedy, OmniLedger, T2S), not %q",
				ErrBadSweep, c.Strategy)
		}
		if c.L2SWeight != 0 {
			return fmt.Errorf("%w: L2SWeight applies to sim cells; offline placement has no latency term", ErrBadSweep)
		}
		if c.Rate != 0 {
			return fmt.Errorf("%w: Rate applies to sim cells; offline placement has no arrival process", ErrBadSweep)
		}
		if c.Streamed {
			return fmt.Errorf("%w: Streamed applies to sim cells; offline placement replays a materialized stream", ErrBadSweep)
		}
	default:
		return fmt.Errorf("%w: unknown cell kind %q", ErrBadSweep, kind)
	}
	if c.Shards < 1 {
		return fmt.Errorf("%w: cell %s: need at least 1 shard", ErrBadSweep, c.Strategy)
	}
	if wl := c.Workload; wl != "" {
		if _, err := workload.Parse(wl); err != nil {
			return fmt.Errorf("%w: cell workload %q: %v", ErrBadSweep, wl, err)
		}
	}
	return nil
}

// Expand resolves the sweep into the canonical cell list a Runner under p
// executes (unset Params take their defaults), validating every name
// against the open registries. It runs nothing.
func (s Sweep) Expand(p Params) ([]Cell, error) {
	p.fillDefaults()
	if s.Name == "" {
		return nil, fmt.Errorf("%w: sweep has no name", ErrBadSweep)
	}
	if len(s.Cells) > 0 {
		// Sweep-level axes and cell defaults do not apply to explicit
		// cells; silently ignoring them would hide misconfiguration.
		switch {
		case len(s.Strategies) > 0, len(s.Protocols) > 0, len(s.Shards) > 0,
			len(s.Rates) > 0, len(s.Workloads) > 0, len(s.Alphas) > 0,
			len(s.L2SWeights) > 0:
			return nil, fmt.Errorf("%w: sweep %q sets axis fields alongside explicit Cells; put the values on the cells", ErrBadSweep, s.Name)
		case s.Txs != 0, s.Warm != 0, s.Tag != "", s.Streaming, s.Kind != "":
			return nil, fmt.Errorf("%w: sweep %q sets cell defaults (Kind/Txs/Warm/Tag/Streaming) alongside explicit Cells; put them on the cells", ErrBadSweep, s.Name)
		}
	}
	// Copy the explicit cell list before normalizing: Expand fills Kind and
	// applies the sticky Uncached flag, and writing those through to the
	// caller's backing array would be a hidden side effect of a public API.
	cells := append([]Cell(nil), s.Cells...)
	if len(cells) == 0 {
		kind := s.Kind
		if kind == "" {
			kind = KindSim
		}
		strategies := s.Strategies
		if len(strategies) == 0 {
			if kind == KindPlacement {
				return nil, fmt.Errorf("%w: placement sweep %q needs an explicit strategy axis", ErrBadSweep, s.Name)
			}
			strategies = p.strategies()
		}
		protocols := s.Protocols
		if len(protocols) == 0 {
			protocols = []string{""}
		}
		shards := s.Shards
		if len(shards) == 0 {
			return nil, fmt.Errorf("%w: sweep %q has no shard axis", ErrBadSweep, s.Name)
		}
		rates := s.Rates
		if len(rates) == 0 {
			if kind == KindSim {
				return nil, fmt.Errorf("%w: sim sweep %q has no rate axis", ErrBadSweep, s.Name)
			}
			rates = []float64{0}
		}
		workloads := s.Workloads
		if len(workloads) == 0 {
			workloads = []string{""}
		}
		alphas := s.Alphas
		if len(alphas) == 0 {
			alphas = []float64{0}
		}
		weights := s.L2SWeights
		if len(weights) == 0 {
			weights = []float64{0}
		}
		streaming := s.Streaming || p.Streaming
		for _, wl := range workloads {
			for _, strat := range strategies {
				for _, proto := range protocols {
					for _, k := range shards {
						for _, r := range rates {
							for _, a := range alphas {
								for _, w := range weights {
									cells = append(cells, Cell{
										Kind:      kind,
										Strategy:  strat,
										Protocol:  proto,
										Shards:    k,
										Rate:      r,
										Workload:  wl,
										Txs:       s.Txs,
										Warm:      s.Warm,
										Alpha:     a,
										L2SWeight: w,
										Streamed:  streaming && kind == KindSim,
										Tag:       s.Tag,
										NoCache:   s.Uncached,
									})
								}
							}
						}
					}
				}
			}
		}
	}
	for i := range cells {
		if cells[i].Kind == "" {
			cells[i].Kind = KindSim
		}
		if s.Uncached {
			cells[i].NoCache = true
		}
		if err := validCell(cells[i], p); err != nil {
			return nil, fmt.Errorf("sweep %q cell %d: %w", s.Name, i, err)
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("%w: sweep %q expands to zero cells", ErrBadSweep, s.Name)
	}
	return cells, nil
}
