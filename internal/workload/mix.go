package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
)

// mix composes any registered scenarios into one stream — the multi-region
// arrival model: each component is an independent population (a Bitcoin-like
// region, a hot-spot exchange, an adversary) issuing transactions that
// interleave on the shared chain. Components are selected per transaction
// with probability proportional to their weights, so weights are
// per-component rate shares of the offered load; a single RNG seeded from
// Params.Seed drives the interleaving, making the whole composition
// deterministic per seed. Components compose recursively — a mix of a mix
// is legal — and keep disjoint lineages (each spends only its own outputs),
// so the composed stream stays double-spend-free by construction.
//
// Spec syntax (see Parse): component=weight pairs in stream order, where a
// component is a scenario name or a parenthesized spec:
//
//	mix:bitcoin=0.7,hotspot=0.2,adversarial=0.1
//	mix:(hotspot:exp=1.5)=0.5,(mix:bitcoin=0.5,drift=0.5)=0.5
//
// Zero-weight components are excluded entirely (never built, never drawn),
// so a single-component mix is stream-identical to the plain source with
// the same seed. Component seeds derive from the mix seed and the
// component's position, so burst-phase schedules inside different
// components are mutually staggered; the `stagger` knob (default 1) scales
// that derivation — stagger=0 gives every component the same seed, aligning
// their phases into synchronized global surges.
//
// Knobs:
//
//	stagger   per-component seed staggering factor (default 1; 0 aligns)
//	window    translation history kept per component, in transactions
//	          (default 1<<20). The local<->global position maps are the
//	          only mix state that would otherwise grow with the stream;
//	          bounding them keeps memory O(components x window) at any
//	          stream length. A component spending an output older than
//	          the window ends the stream with ErrWindowExceeded (via
//	          Failer); placement feedback for positions older than the
//	          window is dropped.
//
// Without components (bare "mix"), the default composition is the
// documented multi-region baseline: bitcoin=0.6, hotspot=0.25,
// adversarial=0.15.
//
// mix implements Observer: placement feedback routes to the component that
// emitted the transaction (so an adversarial component keeps adapting), and
// Failer: a component failing mid-stream (a replay component hitting a
// corrupt trace) surfaces after the stream ends.
type mixSource struct {
	rng    *rand.Rand
	n, i   int
	window int
	comps  []*mixComp
	alive  []*mixComp
	total  float64 // weight sum over alive components
	err    error   // sticky window-overflow failure, surfaced via Failer

	// track is set when some component consumes Observer feedback; only
	// then is the global->component translation below worth recording.
	track   bool
	gbase   int     // global stream position of compOf[0]/localOf[0]
	compOf  []int32 // global stream position -> index into comps
	localOf []int32 // global stream position -> component-local position
	scratch Tx
}

type mixComp struct {
	idx    int
	spec   string
	weight float64
	src    Source
	obs    Observer

	// toGlobal maps the component's local stream positions to global ones.
	// Only the most recent window of positions is kept (base is the local
	// position of toGlobal[0]); older entries are evicted in amortized O(1)
	// compactions so mix state never grows with the stream length.
	base     int
	toGlobal []int32
}

// global translates a component-local position, reporting false when the
// position has been evicted from the window.
func (c *mixComp) global(local int) (int32, bool) {
	if local < c.base || local >= c.base+len(c.toGlobal) {
		return 0, false
	}
	return c.toGlobal[local-c.base], true
}

// push appends the next local position's global index, evicting the oldest
// half-window in one copy once 2x window entries accumulate (the same
// amortization as the outpoint rings).
func (c *mixComp) push(global int32, window int) {
	if len(c.toGlobal) >= 2*window {
		n := copy(c.toGlobal, c.toGlobal[len(c.toGlobal)-window:])
		c.base += len(c.toGlobal) - n
		c.toGlobal = c.toGlobal[:n]
	}
	c.toGlobal = append(c.toGlobal, global)
}

// mixSeedStride separates the derived per-component seeds far enough that
// component streams never share RNG prefixes.
const mixSeedStride = 1_000_000_007

// mixWindowDefault bounds the position-translation history kept per
// component (and globally when routing feedback): far larger than any
// generator's spend working set, small enough that a mix never grows with
// the stream. Overridden by the window knob.
const mixWindowDefault = 1 << 20

func init() {
	scenarios.Must("mix", newMix)
}

// mixComponents extracts the ordered (spec, weight) list: explicit Args in
// spec order, else non-knob Knobs sorted by name (the programmatic
// map-of-weights form), else the default composition.
func mixComponents(p Params) ([]string, []float64, error) {
	var specs []string
	var weights []float64
	for _, a := range p.Args {
		if (strings.EqualFold(a.Key, "stagger") || strings.EqualFold(a.Key, "window")) && a.IsNum {
			continue
		}
		if a.Key == "" {
			return nil, nil, fmt.Errorf("%w: mix argument %q needs the form component=weight", ErrBadParam, a.Value)
		}
		if !a.IsNum {
			return nil, nil, fmt.Errorf("%w: mix component %q: weight %q is not a number", ErrBadParam, a.Key, a.Value)
		}
		specs = append(specs, a.Key)
		weights = append(weights, a.Num)
	}
	if len(specs) == 0 {
		keys := make([]string, 0, len(p.Knobs))
		for k := range p.Knobs {
			if !strings.EqualFold(k, "stagger") && !strings.EqualFold(k, "window") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			specs = append(specs, k)
			weights = append(weights, p.Knobs[k])
		}
	}
	if len(specs) == 0 {
		specs = []string{"bitcoin", "hotspot", "adversarial"}
		weights = []float64{0.6, 0.25, 0.15}
	}
	return specs, weights, nil
}

func newMix(p Params) (Source, error) {
	specs, weights, err := mixComponents(p)
	if err != nil {
		return nil, err
	}
	stagger := p.Knob("stagger", 1)
	if stagger < 0 || stagger > 1e6 || math.IsNaN(stagger) {
		return nil, fmt.Errorf("%w: mix needs 0 <= stagger <= 1e6, got %v", ErrBadParam, stagger)
	}
	// The per-component seed step is stagger×stride, computed once so a
	// fractional stagger still separates every component (stagger=0.5 must
	// not truncate components 0 and 1 onto the same seed).
	seedStep := int64(stagger * mixSeedStride)
	if stagger > 0 && seedStep == 0 {
		return nil, fmt.Errorf("%w: mix stagger %v is too small to separate component seeds", ErrBadParam, stagger)
	}
	window := p.Knob("window", mixWindowDefault)
	if window < 1 || window > 1<<30 || window != math.Trunc(window) {
		return nil, fmt.Errorf("%w: mix needs an integer 1 <= window <= 2^30, got %v", ErrBadParam, window)
	}
	m := &mixSource{
		rng:    rand.New(rand.NewSource(p.Seed)),
		n:      p.N,
		window: int(window),
	}
	for c := range specs {
		w := weights[c]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("%w: mix component %q has weight %v", ErrBadParam, specs[c], w)
		}
		if w == 0 {
			continue // excluded: never built, never drawn
		}
		// Derived seeds are positional over the BUILT components, so
		// dropping a zero-weight entry leaves the others' streams unchanged.
		seed := p.Seed + int64(len(m.comps))*seedStep
		src, err := New(specs[c], Params{N: p.N, Seed: seed, Shards: p.Shards})
		if err != nil {
			for _, built := range m.comps {
				Close(built.src)
			}
			return nil, fmt.Errorf("mix component %q: %w", specs[c], err)
		}
		comp := &mixComp{idx: len(m.comps), spec: specs[c], weight: w, src: src}
		comp.obs, _ = src.(Observer)
		m.track = m.track || comp.obs != nil
		m.comps = append(m.comps, comp)
		m.alive = append(m.alive, comp)
		m.total += w
	}
	if len(m.comps) == 0 {
		return nil, fmt.Errorf("%w: mix has no component with positive weight", ErrBadParam)
	}
	return m, nil
}

// Close implements io.Closer, releasing every component's resources (a
// replay component's trace file) for drivers that abandon the mix before
// draining it.
func (m *mixSource) Close() error {
	for _, c := range m.comps {
		Close(c.src)
	}
	return nil
}

func (m *mixSource) Name() string { return "mix" }

// pick draws one alive component with probability proportional to weight.
func (m *mixSource) pick() *mixComp {
	u := m.rng.Float64() * m.total
	for _, c := range m.alive {
		u -= c.weight
		if u < 0 {
			return c
		}
	}
	return m.alive[len(m.alive)-1]
}

// kill removes a dried-up component from the draw distribution, restoring
// the remaining components' relative rate shares.
func (m *mixSource) kill(dead *mixComp) {
	kept := m.alive[:0]
	for _, c := range m.alive {
		if c != dead {
			kept = append(kept, c)
		}
	}
	m.alive = kept
	m.total = 0
	for _, c := range m.alive {
		m.total += c.weight
	}
}

func (m *mixSource) Next(tx *Tx) bool {
	if m.i >= m.n || m.err != nil {
		return false
	}
	for len(m.alive) > 0 {
		c := m.pick()
		m.scratch.OutVals = m.scratch.OutVals[:0]
		if !c.src.Next(&m.scratch) {
			m.kill(c)
			continue
		}
		tx.Inputs = tx.Inputs[:0]
		for _, in := range m.scratch.Inputs {
			g, ok := c.global(in.Tx)
			if !ok {
				m.err = fmt.Errorf("%w: mix component %q spends its transaction %d, more than window=%d positions back",
					ErrWindowExceeded, c.spec, in.Tx, m.window)
				return false
			}
			tx.Inputs = append(tx.Inputs, Input{Tx: int(g), Index: in.Index})
		}
		tx.Outputs = m.scratch.Outputs
		tx.Value = m.scratch.Value
		tx.OutVals = append(tx.OutVals[:0], m.scratch.OutVals...)
		tx.Gap = m.scratch.Gap
		c.push(int32(m.i), m.window)
		if m.track {
			if len(m.compOf) >= 2*m.window {
				n := copy(m.compOf, m.compOf[len(m.compOf)-m.window:])
				copy(m.localOf, m.localOf[len(m.localOf)-m.window:])
				m.gbase += len(m.compOf) - n
				m.compOf = m.compOf[:n]
				m.localOf = m.localOf[:n]
			}
			m.compOf = append(m.compOf, int32(c.idx))
			m.localOf = append(m.localOf, int32(c.base+len(c.toGlobal)-1))
		}
		m.i++
		return true
	}
	return false
}

// Observe implements Observer: the decision for global transaction i is
// translated to the emitting component's local position and forwarded when
// that component is feedback-aware. Feedback for positions evicted from the
// translation window is dropped — strategies report decisions immediately
// after placing, so live feedback is always far inside the window.
func (m *mixSource) Observe(i, s int) {
	if i < m.gbase || i >= m.gbase+len(m.compOf) {
		return
	}
	c := m.comps[m.compOf[i-m.gbase]]
	if c.obs != nil {
		c.obs.Observe(int(m.localOf[i-m.gbase]), s)
	}
}

// Err implements Failer: a window overflow first, then the first component
// failure, if any.
func (m *mixSource) Err() error {
	if m.err != nil {
		return m.err
	}
	for _, c := range m.comps {
		if err := sourceErr(c.src); err != nil {
			return fmt.Errorf("mix component %q: %w", c.spec, err)
		}
	}
	return nil
}

// Compile-time interface compliance checks.
var (
	_ Observer = (*mixSource)(nil)
	_ Failer   = (*mixSource)(nil)
)
