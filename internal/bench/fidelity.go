package bench

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"optchain/experiment"
)

// claim is one figure the paper quotes, pinned to the cell of a registered
// sweep that reproduces it. With over set, the claim is a lead: strategy's
// metric over over's at the same shards and rate, minus one.
type claim struct {
	id, figure, sweep string
	strategy          string
	shards            int
	rate              float64 // 0 for placement cells
	metric            string  // a key of claimMetrics
	over              string
	paper             float64
	atLeast           bool // the paper gives a lower bound
}

// claims is every figure of the paper's evaluation (§IV-B, §V) that a sweep
// row reproduces, at the paper's operating points. Percentages are written
// as fractions; Table II's counts are over a 1M-tx window and are compared
// as fractions of the window.
var claims = []claim{
	{id: "table1/Metis", figure: "Table I", sweep: "table1", strategy: "Metis", shards: 16, metric: "cross_fraction", paper: 0.0470},
	{id: "table1/Greedy", figure: "Table I", sweep: "table1", strategy: "Greedy", shards: 16, metric: "cross_fraction", paper: 0.2814},
	{id: "table1/OmniLedger", figure: "Table I", sweep: "table1", strategy: "OmniLedger", shards: 16, metric: "cross_fraction", paper: 0.9487},
	{id: "table1/T2S", figure: "Table I", sweep: "table1", strategy: "T2S", shards: 16, metric: "cross_fraction", paper: 0.1573},

	{id: "table2/Greedy", figure: "Table II", sweep: "table2", strategy: "Greedy", shards: 16, metric: "cross_fraction", paper: 0.441267},
	{id: "table2/OmniLedger", figure: "Table II", sweep: "table2", strategy: "OmniLedger", shards: 16, metric: "cross_fraction", paper: 0.960935},
	{id: "table2/T2S", figure: "Table II", sweep: "table2", strategy: "T2S", shards: 16, metric: "cross_fraction", paper: 0.226171},

	{id: "fig4/over-OmniLedger", figure: "Fig. 4", sweep: "peak", strategy: "OptChain", shards: 16, rate: 6000, metric: "steady_tps", over: "OmniLedger", paper: 0.344},
	{id: "fig4/over-Metis", figure: "Fig. 4", sweep: "peak", strategy: "OptChain", shards: 16, rate: 6000, metric: "steady_tps", over: "Metis", paper: 0.305},
	{id: "fig4/over-Greedy", figure: "Fig. 4", sweep: "peak", strategy: "OptChain", shards: 16, rate: 6000, metric: "steady_tps", over: "Greedy", paper: 0.166},

	{id: "fig6/OptChain", figure: "Fig. 6", sweep: "peak", strategy: "OptChain", shards: 16, rate: 6000, metric: "peak_queue", paper: 44_000},
	{id: "fig6/Greedy", figure: "Fig. 6", sweep: "peak", strategy: "Greedy", shards: 16, rate: 6000, metric: "peak_queue", paper: 230_000},
	{id: "fig6/OmniLedger", figure: "Fig. 6", sweep: "peak", strategy: "OmniLedger", shards: 16, rate: 6000, metric: "peak_queue", paper: 499_000},
	{id: "fig6/Metis", figure: "Fig. 6", sweep: "peak", strategy: "Metis", shards: 16, rate: 6000, metric: "peak_queue", paper: 507_000},

	{id: "fig8/OptChain@4000", figure: "Fig. 8", sweep: "grid", strategy: "OptChain", shards: 16, rate: 4000, metric: "avg_latency_sec", paper: 8.7},
	{id: "fig8/OmniLedger@6000", figure: "Fig. 8", sweep: "grid", strategy: "OmniLedger", shards: 16, rate: 6000, metric: "avg_latency_sec", paper: 346.2},

	{id: "fig9/OptChain", figure: "Fig. 9", sweep: "peak", strategy: "OptChain", shards: 16, rate: 6000, metric: "max_latency_sec", paper: 100.9},
	{id: "fig9/OmniLedger", figure: "Fig. 9", sweep: "peak", strategy: "OmniLedger", shards: 16, rate: 6000, metric: "max_latency_sec", paper: 1309.5},
	{id: "fig9/Metis", figure: "Fig. 9", sweep: "peak", strategy: "Metis", shards: 16, rate: 6000, metric: "max_latency_sec", paper: 1345.9},
	{id: "fig9/Greedy", figure: "Fig. 9", sweep: "peak", strategy: "Greedy", shards: 16, rate: 6000, metric: "max_latency_sec", paper: 628.9},

	{id: "fig10/OptChain", figure: "Fig. 10", sweep: "peak", strategy: "OptChain", shards: 16, rate: 6000, metric: "within_10s", paper: 0.70},
	{id: "fig10/Greedy", figure: "Fig. 10", sweep: "peak", strategy: "Greedy", shards: 16, rate: 6000, metric: "within_10s", paper: 0.412},
	{id: "fig10/OmniLedger", figure: "Fig. 10", sweep: "peak", strategy: "OmniLedger", shards: 16, rate: 6000, metric: "within_10s", paper: 0.079},
	{id: "fig10/Metis", figure: "Fig. 10", sweep: "peak", strategy: "Metis", shards: 16, rate: 6000, metric: "within_10s", paper: 0.024},

	// SaturationSweep offers 450 tx/s per shard.
	{id: "fig11/OptChain", figure: "Fig. 11", sweep: "saturation", strategy: "OptChain", shards: 62, rate: 450 * 62, metric: "steady_tps", paper: 20_000, atLeast: true},
}

// claimMetrics reads a claim's metric off a row, and says whether the row
// carries it: the within-10 s share needs the simulation record, which a
// row served from the persistent row cache does not have.
var claimMetrics = map[string]func(experiment.Row) (float64, bool){
	"cross_fraction":  func(r experiment.Row) (float64, bool) { return r.CrossFraction, true },
	"steady_tps":      func(r experiment.Row) (float64, bool) { return r.SteadyTPS, true },
	"avg_latency_sec": func(r experiment.Row) (float64, bool) { return r.AvgLatencySec, true },
	"max_latency_sec": func(r experiment.Row) (float64, bool) { return r.MaxLatencySec, true },
	"peak_queue":      func(r experiment.Row) (float64, bool) { return float64(r.PeakQueue), true },
	"within_10s": func(r experiment.Row) (float64, bool) {
		if r.Result == nil {
			return 0, false
		}
		return r.Result.Latencies.FractionWithin(10e9), true
	},
}

func init() {
	err := experiment.RegisterReporter("fidelity", func(w io.Writer) experiment.Reporter {
		return &fidelityReporter{w: bufio.NewWriter(w), got: make([][2]reading, len(claims))}
	})
	if err != nil {
		panic(err) //optchain:fatal duplicate built-in registration is a programmer error caught at init
	}
}

// reading is one side of a claim as its row delivered it.
type reading struct {
	v        float64
	seen, ok bool // the row arrived; it carries the metric
}

// fidelityReporter sets each claim whose cell is in the run beside the
// paper's value: paper, ours, and ours over paper. Claims whose cells the
// run does not contain are not printed.
type fidelityReporter struct {
	w        *bufio.Writer
	sweep    string
	workload string
	got      [][2]reading // per claim: strategy's cell, over's cell
}

func (f *fidelityReporter) Begin(s experiment.Sweep, p experiment.Params) error {
	f.sweep, f.workload = s.Name, p.WorkloadLabel()
	return nil
}

func (f *fidelityReporter) Row(r experiment.Row) error {
	for i, c := range claims {
		if !strings.EqualFold(r.Sweep, c.sweep) || r.Shards != c.shards || r.Rate != c.rate {
			continue
		}
		for side, strategy := range [2]string{c.strategy, c.over} {
			if strategy != "" && strings.EqualFold(r.Strategy, strategy) {
				v, ok := claimMetrics[c.metric](r)
				f.got[i][side] = reading{v: v, seen: true, ok: ok}
			}
		}
	}
	return nil
}

// fidelityLine lays out one claim: id, figure, cell, metric, paper, ours,
// ratio.
const fidelityLine = "%-22s %-9s %-24s %-32s %10s %11s %7s\n"

func (f *fidelityReporter) End() error {
	fmt.Fprintf(f.w, "== fidelity: sweep %s against the paper (workload=%s) ==\n", f.sweep, f.workload)
	fmt.Fprintf(f.w, fidelityLine, "claim", "figure", "cell", "metric", "paper", "ours", "ratio")
	printed := 0
	for i, c := range claims {
		a, b := f.got[i][0], f.got[i][1]
		if !a.seen || (c.over != "" && !b.seen) {
			continue
		}
		printed++
		cell, metric := fmt.Sprintf("%s k=%d", c.strategy, c.shards), c.metric
		if c.rate != 0 {
			cell += fmt.Sprintf(" r=%g", c.rate)
		}
		ours, ok := a.v, a.ok
		if c.over != "" {
			metric += " lead over " + c.over
			ours, ok = a.v/b.v-1, ok && b.ok && b.v != 0
		}
		paper := fmt.Sprintf("%g", c.paper)
		if c.atLeast {
			paper = ">" + paper
		}
		oursText, ratio := "-", "-"
		if ok {
			oursText, ratio = fmt.Sprintf("%.6g", ours), fmt.Sprintf("%.3f", ours/c.paper)
		}
		fmt.Fprintf(f.w, fidelityLine, c.id, c.figure, cell, metric, paper, oursText, ratio)
	}
	if printed == 0 {
		fmt.Fprintln(f.w, "no claim names a cell of this sweep (claims sit in table1, table2, grid, peak and saturation)")
	}
	return f.w.Flush()
}
