package main

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root repeats this table (manifest_test.go holds the two together); Bound
// is the share of the parent's median by which an end-to-end metric may
// get worse before a change is rejected, and is 0 for per-layer metrics.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is what a user of the system sees, the same names on every
// workload. The bounds were set from ten-seed run sets on the recorded host
// (README.md has the tables). A run set varies the seed, so the bound of an
// exact metric is three times its spread between seeds, or the 25% cap;
// the timed ones all carry the cap, which is what this host's slow spells
// need. The in-slice tail latency could not stay inside the cap on
// hotspot-rpc and is reported per layer (serve.tail_ms).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"place_tx_per_s", "tx/s", "higher", 0.25},
	{"cross_fraction", "ratio", "lower", 0.15},
	{"state_bytes_per_tx", "B/tx", "lower", 0.02},
	{"snapshot_bytes_per_tx", "B/tx", "lower", 0.10},
	{"restart_s", "s", "lower", 0.25},
	{"serve_lines_per_s", "lines/s", "higher", 0.25},
	{"serve_p50_ms", "ms", "lower", 0.25},
	{"sim_tx_per_wall_s", "tx/s", "higher", 0.25},
	{"sim_steady_tps", "tx/s", "higher", 0.10},
	{"sim_confirm_avg_s", "s", "lower", 0.25},
	{"sim_confirm_p99_s", "s", "lower", 0.25},
	{"sim_cross_fraction", "ratio", "lower", 0.12},
}

// perLayer is what the traced run reports: one layer each, no bound.
var perLayer = []metricDef{
	{Name: "workload.gen_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "workload.materialize_s", Unit: "s", Better: "lower"},
	{Name: "workload.reference_s", Unit: "s", Better: "lower"},
	{Name: "workload.encode_bodies_s", Unit: "s", Better: "lower"},
	{Name: "workload.inputs_per_tx", Unit: "count", Better: "lower"},

	{Name: "core.t2s_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "core.optchain_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "core.select_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "core.slab_entries_per_tx", Unit: "count", Better: "lower"},

	{Name: "placement.hash_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "placement.greedy_ns_per_tx", Unit: "ns/tx", Better: "lower"},

	{Name: "engine.place_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "engine.overhead_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "engine.place_one_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "engine.allocs_per_tx", Unit: "count", Better: "lower"},
	{Name: "engine.alloc_bytes_per_tx", Unit: "B/tx", Better: "lower"},
	{Name: "engine.gc_cycles_per_mtx", Unit: "count", Better: "lower"},
	{Name: "engine.parallel_tx_per_s", Unit: "tx/s", Better: "higher"},
	{Name: "engine.parallel_cross_fraction", Unit: "ratio", Better: "lower"},
	{Name: "engine.snapshot_write_s", Unit: "s", Better: "lower"},
	{Name: "engine.snapshot_read_s", Unit: "s", Better: "lower"},
	{Name: "engine.snapshot_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "serve.inproc_lines_per_s", Unit: "lines/s", Better: "higher"},
	{Name: "serve.handler_lines_per_s", Unit: "lines/s", Better: "higher"},
	{Name: "serve.queue_ns_per_line", Unit: "ns/line", Better: "lower"},
	{Name: "serve.codec_ns_per_line", Unit: "ns/line", Better: "lower"},
	{Name: "serve.transport_ns_per_line", Unit: "ns/line", Better: "lower"},
	{Name: "serve.json_decode_ns_per_line", Unit: "ns/line", Better: "lower"},
	{Name: "serve.json_encode_ns_per_line", Unit: "ns/line", Better: "lower"},
	{Name: "serve.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.batch_mean_txs", Unit: "count", Better: "higher"},
	{Name: "serve.server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.server_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.rejected_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.wire_bytes_per_line", Unit: "B/line", Better: "lower"},
	{Name: "serve.state_save_s", Unit: "s", Better: "lower"},
	{Name: "serve.state_load_s", Unit: "s", Better: "lower"},
	{Name: "serve.idmap_bytes_per_tx", Unit: "B/tx", Better: "lower"},

	{Name: "sim.wall_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "sim.place_share", Unit: "ratio", Better: "lower"},
	{Name: "des.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.hash_wall_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "sim.hash_cross_fraction", Unit: "ratio", Better: "lower"},
	{Name: "sim.hash_confirm_avg_s", Unit: "s", Better: "lower"},
	{Name: "sim.retries_per_tx", Unit: "count", Better: "lower"},
	{Name: "sim.aborts_per_tx", Unit: "count", Better: "lower"},
	{Name: "sim.blocks_per_ktx", Unit: "count", Better: "lower"},
	{Name: "sim.queue_peak", Unit: "count", Better: "lower"},
	{Name: "sim.avg_consensus_s", Unit: "s", Better: "lower"},

	{Name: "experiment.sweep_cells_per_s", Unit: "1/s", Better: "higher"},
	{Name: "experiment.cached_cells_per_s", Unit: "1/s", Better: "higher"},

	{Name: "host.calib_quiet_ms", Unit: "ms", Better: "lower"},
	{Name: "host.calib_median_ms", Unit: "ms", Better: "lower"},
	{Name: "host.noisy_round_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.place_iqr_rel", Unit: "ratio", Better: "lower"},
	{Name: "bench.restart_iqr_rel", Unit: "ratio", Better: "lower"},
	{Name: "bench.serve_iqr_rel", Unit: "ratio", Better: "lower"},
	{Name: "bench.sim_iqr_rel", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}
