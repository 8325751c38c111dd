package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// result is one run of one workload, reduced to its metrics.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Rounds    int                `json:"rounds"`
	Metrics   map[string]float64 `json:"metrics"`
	Phases    []phaseCount       `json:"phases"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	TailPct   float64            `json:"serve_tail_percentile"`
	TailOf    int                `json:"serve_samples_per_slice"`
	Noisy     float64            `json:"noisy_round_share"`
	Trace     string             `json:"trace,omitempty"`
}

type phaseCount struct {
	Phase     string `json:"phase"`
	Failed    int    `json:"failed"`
	Attempted int    `json:"attempted"`
}

// defs is the metric table of the run's mode.
func (res *result) defs() []metricDef {
	if res.Traced {
		return perLayer
	}
	return endToEnd
}

// q is the quiet-host value of a timed slice, mid the median over the
// rounds of its whole-slice values, and spread their interquartile
// distance over that median.
func (r *runner) q(name string) float64      { return quietSum(r.samples[name]) }
func (r *runner) mid(name string) float64    { return median(totals(r.samples[name])) }
func (r *runner) spread(name string) float64 { return iqrRel(totals(r.samples[name])) }

// noisyShare is the share of rounds whose calib slice ran well over the
// run's quiet calib time: rounds in which the host, not the program, was
// slow.
func (r *runner) noisyShare() float64 {
	calib := totals(r.samples["calib_ms"])
	limit, n := noisyOver*slices.Min(calib), 0
	for _, v := range calib {
		n += btoi(v > limit)
	}
	return float64(n) / float64(len(calib))
}

func (r *runner) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":               r.q("setup_s"),
		"place_tx_per_s":        placeTxs / r.q("place_s"),
		"cross_fraction":        r.exact["cross_fraction"],
		"state_bytes_per_tx":    r.once["state_bytes_per_tx"],
		"snapshot_bytes_per_tx": r.exact["snapshot_bytes_per_tx"],
		"restart_s":             r.q("restart_s"),
		"serve_lines_per_s":     float64(r.in.gatewayLines()) / r.gatewaySecs("serve_s"),
		"serve_p50_ms":          quietMedian(r.samples["serve_p50_ms"]),
		"sim_tx_per_wall_s":     simTxs / r.q("sim_s"),
		"sim_steady_tps":        r.pool("sim_steady_tps"),
		"sim_confirm_avg_s":     r.pool("sim_confirm_avg_s"),
		"sim_confirm_p99_s":     r.pool("sim_confirm_p99_s"),
		"sim_cross_fraction":    r.pool("sim_cross_fraction"),
	}
}

// perLayer reduces the traced run. The differences between nested paths
// (engine minus core, handler minus in-process, ...) are taken between
// quiet-host values; one that comes out negative means the slices were
// too noisy to difference, and fails the run.
func (r *runner) perLayer() (map[string]float64, error) {
	lines := float64(r.in.gatewayLines())
	placeNS := 1e9 * r.q("place_s") / placeTxs
	t2sNS := 1e9 * r.q("core_t2s_s") / placeTxs
	optNS := 1e9 * r.q("core_optchain_s") / placeTxs
	serveNS := 1e9 * r.gatewaySecs("serve_s") / lines
	handlerNS := 1e9 * r.gatewaySecs("handler_s") / lines
	inprocNS := 1e9 * r.q("inproc_s") / float64(len(r.lx.inproc)) / r.once["inproc_lines"]
	simNS := 1e9 * r.q("sim_s") / simTxs
	snapBytes := r.exact["snapshot_bytes_per_tx"] * placeTxs

	m := map[string]float64{
		"workload.gen_ns_per_tx":     1e9 * r.q("gen_s") / simTxs,
		"workload.materialize_s":     r.mid("materialize_s"),
		"workload.reference_s":       r.mid("reference_s"),
		"workload.encode_bodies_s":   r.mid("encode_s"),
		"workload.inputs_per_tx":     float64(len(r.in.st.inputs)) / float64(r.in.st.len()),
		"core.t2s_ns_per_tx":         t2sNS,
		"core.optchain_ns_per_tx":    optNS,
		"core.select_ns_per_tx":      optNS - t2sNS,
		"placement.hash_ns_per_tx":   1e9 * r.q("placement_OmniLedger_s") / placeTxs,
		"placement.greedy_ns_per_tx": 1e9 * r.q("placement_Greedy_s") / placeTxs,

		"engine.place_ns_per_tx":      placeNS,
		"engine.overhead_ns_per_tx":   placeNS - optNS,
		"engine.place_one_ns_per_tx":  1e9 * r.q("place_one_s") / serveLines,
		"engine.allocs_per_tx":        r.mid("engine.allocs_per_tx"),
		"engine.alloc_bytes_per_tx":   r.mid("engine.alloc_bytes_per_tx"),
		"engine.gc_cycles_per_mtx":    r.mid("engine.gc_cycles_per_mtx"),
		"engine.parallel_tx_per_s":    placeTxs / r.q("parallel_s"),
		"engine.snapshot_write_s":     r.q("snapshot_write_s"),
		"engine.snapshot_read_s":      r.q("snapshot_read_s"),
		"engine.snapshot_mb_per_s":    snapBytes / 1e6 / r.q("restart_s"),
		"serve.inproc_lines_per_s":    1e9 / inprocNS,
		"serve.handler_lines_per_s":   1e9 / handlerNS,
		"serve.queue_ns_per_line":     inprocNS - placeNS,
		"serve.codec_ns_per_line":     handlerNS - inprocNS,
		"serve.transport_ns_per_line": serveNS - handlerNS,

		"serve.json_decode_ns_per_line": 1e9 * r.q("json_decode_s") / float64(len(r.lx.lines)),
		"serve.json_encode_ns_per_line": 1e9 * r.q("json_encode_s") / float64(len(r.lx.lines)),
		"serve.tail_ms":                 r.q("serve_tail_ms"),
		"serve.batch_mean_txs":          r.mid("serve.batch_mean_txs"),
		"serve.server_p50_ms":           r.mid("serve.server_p50_ms"),
		"serve.server_p99_ms":           r.mid("serve.server_p99_ms"),
		"serve.rejected_share":          r.mid("serve.rejected_share"),
		"serve.wire_bytes_per_line":     r.mid("serve.wire_bytes_per_line"),
		"serve.state_save_s":            r.q("state_save_s"),
		"serve.state_load_s":            r.q("state_load_s"),

		"sim.wall_ns_per_tx":      simNS,
		"sim.place_share":         placeNS / simNS,
		"des.events_per_s":        1 / r.q("des_s_per_event"),
		"sim.hash_wall_ns_per_tx": 1e9 * r.q("sim_hash_s") / simTxs,

		"experiment.sweep_cells_per_s":  1 / r.q("sweep_s"),
		"experiment.cached_cells_per_s": 1 / r.q("cached_s"),

		"host.calib_quiet_ms":        r.q("calib_ms"),
		"host.calib_median_ms":       r.mid("calib_ms"),
		"host.noisy_round_share":     r.noisyShare(),
		"bench.place_iqr_rel":        r.spread("place_s"),
		"bench.restart_iqr_rel":      r.spread("restart_s"),
		"bench.serve_iqr_rel":        r.spread("serve_s"),
		"bench.sim_iqr_rel":          r.spread("sim_s"),
		"bench.trace_overhead_ratio": r.q("place_s") / r.q("place_untraced_s"),
	}
	for _, d := range perLayer {
		if v, ok := r.exact[d.Name]; ok {
			m[d.Name] = v
		} else if _, ok := r.exact[d.Name+"#0"]; ok {
			m[d.Name] = r.pool(d.Name)
		}
	}
	// A difference of two quiet-host values is only as sharp as the slices
	// it came from: on bulk shapes the loopback transport is about 1% of a
	// line. So a difference may dip below zero by the interquartile spread of
	// its noisier side and is then reported as measured; further below means
	// the slices were too noisy to difference at all.
	for _, d := range []struct {
		name        string
		whole, part float64
		a, b        string
	}{
		{"engine.overhead_ns_per_tx", placeNS, optNS, "place_s", "core_optchain_s"},
		{"serve.queue_ns_per_line", inprocNS, placeNS, "inproc_s", "place_s"},
		{"serve.codec_ns_per_line", handlerNS, inprocNS, "handler_s", "inproc_s"},
		{"serve.transport_ns_per_line", serveNS, handlerNS, "serve_s", "handler_s"},
	} {
		slack := max(r.spread(d.a), r.spread(d.b)) * d.whole
		if d.whole-d.part < -slack {
			return m, fmt.Errorf("%s = %.1f: the slices were too noisy to difference", d.name, d.whole-d.part)
		}
	}
	return m, nil
}

// printResult writes every metric of the run's mode by name with its unit,
// then the failed/attempted count of every phase.
func printResult(w io.Writer, res *result) {
	mode := "end to end"
	if res.Traced {
		mode = "per layer (traced)"
	}
	fmt.Fprintf(w, "\n%s  seed %d  %s  %d rounds\n", res.Workload, res.Seed, mode, res.Rounds)
	for _, d := range res.defs() {
		note := ""
		if d.Bound > 0 {
			note = fmt.Sprintf("  (%s is better, bound %.0f%%)", d.Better, 100*d.Bound)
		}
		if d.Name == "serve.tail_ms" {
			note += fmt.Sprintf("  [p%g of %d POSTs per slice]", res.TailPct, res.TailOf)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-8s%s\n", d.Name, res.Metrics[d.Name], d.Unit, note)
	}
	fmt.Fprint(w, "  failed/attempted:")
	for _, p := range res.Phases {
		fmt.Fprintf(w, "  %s %d/%d", p.Phase, p.Failed, p.Attempted)
	}
	fmt.Fprintln(w)
	if res.Noisy > 0.5 {
		fmt.Fprintf(w, "  WARNING: the host was slow in %.0f%% of the rounds (calib slice over %.2fx its quiet time): expect differences between runs that no code change made\n",
			100*res.Noisy, noisyOver)
	}
	if res.Trace != "" {
		fmt.Fprintf(w, "  spans written to %s\n", res.Trace)
	}
}

// printSpread writes, for K runs of one workload, each metric's minimum,
// median and maximum, (max-min)/median, and the interquartile distance over
// the median as the acceptance driver computes it, beside the bound.
func printSpread(w io.Writer, name string, runs []*result) {
	fmt.Fprintf(w, "\n%s  %d runs\n  %-32s %12s %12s %12s %9s %9s %7s\n",
		name, len(runs), "metric", "min", "median", "max", "range/med", "iqr/med", "bound")
	for _, d := range runs[0].defs() {
		v := make([]float64, len(runs))
		for i, res := range runs {
			v[i] = res.Metrics[d.Name]
		}
		_, med, _ := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		rel := 0.0
		if med != 0 {
			rel = (hi - lo) / math.Abs(med)
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.2f", d.Bound)
		}
		fmt.Fprintf(w, "  %-32s %12.6g %12.6g %12.6g %9.4f %9.4f %7s\n", d.Name, lo, med, hi, rel, iqrRel(v), bound)
	}
}
