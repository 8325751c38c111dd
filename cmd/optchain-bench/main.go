// Command optchain-bench is a thin driver over the optchain/experiment
// sweep layer. It runs either the paper-layout experiment reports
// (-experiment: the tables and figures of the OptChain paper's evaluation,
// ICDCS 2019 §IV-B and §V) or any registered sweep through any registered
// reporter (-sweep/-reporter: results as streamed data rather than
// paper-shaped text).
//
// Usage:
//
//	optchain-bench -experiment all
//	optchain-bench -experiment table1 -table-n 500000
//	optchain-bench -experiment fig3 -n 100000 -validators 400
//	optchain-bench -experiment fig3 -protocol rapidchain
//	optchain-bench -experiment fig4 -strategies OptChain,OmniLedger
//	optchain-bench -experiment fig5 -workload mix:bitcoin=0.7,hotspot=0.3
//	optchain-bench -experiment fig5 -workload "replay:trace.tan,mod=(burst:boost=4)" -stream
//	optchain-bench -experiment scenarios                     # workload lab
//	optchain-bench -experiment scenarios -workloads "hotspot;adversarial"
//	optchain-bench -quick -experiment all       # fast smoke pass
//
//	optchain-bench -list-sweeps
//	optchain-bench -sweep grid -reporter jsonl -out grid.jsonl
//	optchain-bench -sweep peak -reporter csv
//	optchain-bench -sweep smoke -reporter text
//	optchain-bench -quick -sweep grid -stream -workload "mix:burst=0.5,bitcoin=0.5"
//	optchain-bench -sweep grid -reporter jsonl -out grid.jsonl -cache .sweep-cache
//	optchain-bench -diff old.jsonl new.jsonl
//	optchain-bench -diff -allow-missing -tol-tps 0.1 BENCH_baseline.json new.jsonl
//
// -cache DIR persists every completed row as JSONL keyed by its stable
// cell ID; re-running the same sweep (or an interrupted one) serves cached
// rows instead of re-simulating, so a killed grid resumes where it died. A
// corrupt cache or one written under a different seed fails loudly with
// ErrBadCache rather than silently recomputing.
//
// -diff OLD NEW joins two row files on cell ID — jsonl sweep output, a row
// cache, or a BENCH_baseline.json record — classifies each quality metric
// against relative tolerances (-tol-tps, -tol-cross, -tol-nstx), prints
// the verdict table, and exits non-zero on any regression; `make
// quality-gate` wires this into CI. The `diff` reporter
// (-reporter "diff:old=FILE,tps=0.05") gates a live sweep the same way.
//
// The -strategies, -protocol, -workload, and -workloads flags resolve
// through the open registries, so strategies/protocols/workloads added with
// optchain.RegisterStrategy / RegisterProtocol / RegisterWorkload are
// selectable here too; -sweep and -reporter resolve through
// experiment.RegisterSweep / RegisterReporter the same way. Experiment
// names: fig2 table1 table2 fig3..fig11 scenarios
// ablation-{l2s,alpha,weight,backend}.
//
// -workload selects the stream driving EVERY figure, table, and ablation
// sweep: any workload spec (see SCENARIOS.md for the grammar). By default
// it is materialized at each experiment's stream length; with -stream the
// simulation sweeps pull it one transaction per issue event instead —
// nothing is materialized, so `mix:`/`replay:` arrival modulation (burst,
// drift Gap shaping) bends the figures too. Metis cells still materialize
// (the offline partition needs the full graph) and say so in their rows.
// -workloads (plural) instead picks the scenario SET the `scenarios`
// experiment and the baseline's per-scenario section stream; entries are
// ','-separated, or ';'-separated when a spec itself contains commas
// (separators inside parentheses never split a spec).
//
// -baseline-json FILE measures the hot-path micro-benchmarks and one quick
// simulation per strategy × protocol, and writes the machine-readable
// performance record tracked as BENCH_baseline.json (`make bench-json`),
// schema v6. -cpuprofile/-memprofile/-trace capture runtime profiles of
// any run (see PERFORMANCE.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"optchain"
	"optchain/experiment"
	"optchain/internal/bench"
	"optchain/internal/profiling"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp        = flag.String("experiment", "", "paper-layout experiment to run ('all' or a name; default 'all' unless -sweep is given)")
		sweep      = flag.String("sweep", "", "registered sweep to stream through -reporter (see -list-sweeps)")
		reporter   = flag.String("reporter", "", "reporter spec for -sweep: name[:key=value,...] (text, jsonl, csv, baseline, diff; default text)")
		out        = flag.String("out", "", "output file for -sweep (default stdout)")
		cacheDir   = flag.String("cache", "", "row-cache directory for -sweep: completed rows persist keyed by cell ID and re-runs resume instead of re-simulating")
		diffMode   = flag.Bool("diff", false, "compare two row files (OLD NEW as positional args; jsonl sweep output, a row cache, or BENCH_baseline.json) and exit non-zero on quality regression")
		tolTPS     = flag.Float64("tol-tps", 0.05, "-diff relative tolerance on steady_tps (regresses downward)")
		tolCross   = flag.Float64("tol-cross", 0.05, "-diff relative tolerance on cross_fraction (regresses upward)")
		tolNsTx    = flag.Float64("tol-nstx", 0, "-diff relative tolerance on wall ns/tx (0 = not compared; host noise)")
		allowMiss  = flag.Bool("allow-missing", false, "-diff: accept cells present in OLD but absent from NEW (gating a subset run against a fuller baseline)")
		listSweeps = flag.Bool("list-sweeps", false, "list registered sweeps and reporters, then exit")
		stream     = flag.Bool("stream", false, "drive simulation sweeps from streaming workload sources (no materialization; Metis cells still materialize)")
		n          = flag.Int("n", 60_000, "transactions per simulation run")
		tableN     = flag.Int("table-n", 200_000, "transactions for offline tables")
		seed       = flag.Int64("seed", 1, "random seed")
		validators = flag.Int("validators", 400, "validators per shard committee")
		workers    = flag.Int("workers", 0, "parallel simulation workers (0 = NumCPU)")
		quick      = flag.Bool("quick", false, "shrink all grids for a fast smoke pass")
		protocol   = flag.String("protocol", "", "commit protocol for the sweeps (default omniledger)")
		strategies = flag.String("strategies", "", "comma-separated strategy set for the figures (default: paper's four)")
		wl         = flag.String("workload", "", "workload spec driving every figure/table/ablation sweep (default: calibrated bitcoin generator)")
		workloads  = flag.String("workloads", "", "workload-scenario set for the scenarios experiment and baseline; ','-separated, or ';'-separated when a spec contains commas (a trailing ';' forces that mode); default: all standalone registered")
		list       = flag.Bool("list", false, "list experiment names and exit")
		baseline   = flag.String("baseline-json", "", "measure hot paths and write the JSON performance record to this file instead of running experiments")
		mergeCache = flag.String("merge-cache", "", "merge row caches: write the union of the positional input rows.jsonl files to this path (inputs must share seed/validators; diverging duplicate cells fail)")
	)
	var prof profiling.Config
	prof.AddFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(bench.Names(), "\n"))
		return 0
	}
	if *listSweeps {
		fmt.Println("sweeps:")
		for _, name := range experiment.SweepNames() {
			fmt.Printf("  %-12s %s\n", name, experiment.SweepDescription(name))
		}
		fmt.Printf("reporters: %s\n", strings.Join(experiment.Reporters(), " "))
		return 0
	}
	if *mergeCache != "" {
		// -merge-cache is an offline file operation; combining it with a
		// run or comparison mode would leave one of the two silently undone.
		for flagName, set := range map[string]bool{
			"-sweep": *sweep != "", "-experiment": *exp != "", "-baseline-json": *baseline != "",
			"-cache": *cacheDir != "", "-stream": *stream, "-diff": *diffMode,
		} {
			if set {
				fmt.Fprintf(os.Stderr, "optchain-bench: %s and -merge-cache are mutually exclusive\n", flagName)
				return 2
			}
		}
		if flag.NArg() < 1 {
			fmt.Fprintln(os.Stderr, "usage: optchain-bench -merge-cache OUT IN1 [IN2 ...]")
			return 2
		}
		if err := experiment.MergeCacheFiles(*mergeCache, flag.Args()...); err != nil {
			fmt.Fprintf(os.Stderr, "optchain-bench: %v\n", err)
			return 1
		}
		fmt.Printf("merged %d cache file(s) into %s\n", flag.NArg(), *mergeCache)
		return 0
	}
	if *diffMode {
		// -diff is an offline comparison; combining it with a run mode
		// would leave one of the two silently undone.
		for flagName, set := range map[string]bool{
			"-sweep": *sweep != "", "-experiment": *exp != "", "-baseline-json": *baseline != "",
			"-cache": *cacheDir != "", "-stream": *stream,
		} {
			if set {
				fmt.Fprintf(os.Stderr, "optchain-bench: %s and -diff are mutually exclusive\n", flagName)
				return 2
			}
		}
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: optchain-bench -diff [-tol-tps F] [-tol-cross F] [-tol-nstx F] [-allow-missing] OLD NEW")
			return 2
		}
		tol := experiment.Tolerances{
			SteadyTPS:     *tolTPS,
			CrossFraction: *tolCross,
			NsPerTx:       *tolNsTx,
			AllowMissing:  *allowMiss,
		}
		return runDiff(flag.Arg(0), flag.Arg(1), tol)
	}
	// Reporter knobs without a sweep would be silently inert; fail instead.
	if *sweep == "" {
		for flagName, val := range map[string]string{"-reporter": *reporter, "-out": *out, "-cache": *cacheDir} {
			if val != "" {
				fmt.Fprintf(os.Stderr, "optchain-bench: %s %q requires -sweep (see -list-sweeps)\n", flagName, val)
				return 2
			}
		}
	}
	if *sweep != "" && *exp != "" {
		fmt.Fprintln(os.Stderr, "optchain-bench: -sweep and -experiment are mutually exclusive")
		return 2
	}
	if *baseline != "" {
		// -baseline-json replaces the run; silently dropping a requested
		// sweep or experiment would leave the user believing it executed,
		// and -stream is inert in the baseline sections.
		switch {
		case *sweep != "":
			fmt.Fprintln(os.Stderr, "optchain-bench: -sweep and -baseline-json are mutually exclusive")
			return 2
		case *exp != "":
			fmt.Fprintln(os.Stderr, "optchain-bench: -experiment and -baseline-json are mutually exclusive")
			return 2
		case *stream:
			fmt.Fprintln(os.Stderr, "optchain-bench: -stream does not apply to -baseline-json (the baseline sections fix their own streaming mode)")
			return 2
		}
	}

	params := bench.Params{
		N:          *n,
		TableN:     *tableN,
		Seed:       *seed,
		Validators: *validators,
		Workers:    *workers,
		Quick:      *quick,
		Streaming:  *stream,
		CacheDir:   *cacheDir,
	}
	if *protocol != "" {
		if !optchain.HasProtocol(*protocol) {
			fmt.Fprintf(os.Stderr, "unknown protocol %q; registered: %s\n",
				*protocol, strings.Join(optchain.Protocols(), " "))
			return 2
		}
		params.Protocol = *protocol
	}
	if *strategies != "" {
		for _, name := range strings.Split(*strategies, ",") {
			name = strings.TrimSpace(name)
			if !optchain.HasStrategy(name) {
				fmt.Fprintf(os.Stderr, "unknown strategy %q; registered: %s\n",
					name, strings.Join(optchain.Strategies(), " "))
				return 2
			}
			params.Strategies = append(params.Strategies, name)
		}
	}
	if *wl != "" {
		if _, _, err := optchain.ParseWorkloadSpec(*wl); err != nil {
			fmt.Fprintf(os.Stderr, "optchain-bench: -workload: %v\n", err)
			return 2
		}
		params.Workload = *wl
	}
	if *workloads != "" {
		specs, err := optchain.SplitWorkloadList(*workloads)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optchain-bench: -workloads: %v\n", err)
			return 2
		}
		params.Workloads = specs
	}

	h := bench.NewHarness(params)

	// One interrupt context for every mode: Ctrl-C cancels the experiment,
	// sweep, or baseline run between cells instead of killing mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "optchain-bench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "optchain-bench: %v\n", err)
		}
	}()

	start := time.Now()
	if *baseline != "" {
		f, err := os.Create(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optchain-bench: %v\n", err)
			return 1
		}
		err = bench.WriteBaselineJSON(ctx, h, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "optchain-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "wrote %s in %.1fs\n", *baseline, time.Since(start).Seconds())
		return 0
	}

	if *sweep != "" {
		if err := runSweep(ctx, h, *sweep, *reporter, *out); err != nil {
			fmt.Fprintf(os.Stderr, "optchain-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
		return 0
	}

	name := *exp
	if name == "" {
		name = "all"
	}
	if name == "all" {
		err = bench.RunAll(ctx, h, os.Stdout)
	} else if fn, ok := bench.Experiments[name]; ok {
		err = fn(ctx, h, os.Stdout)
	} else {
		err = fmt.Errorf("unknown experiment %q (have %v)", name, bench.Names())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "optchain-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "done in %.1fs\n", time.Since(start).Seconds())
	return 0
}

// runDiff joins two row files on cell identity, renders the verdict table,
// and returns the process exit code: 0 when the gate passes, 1 on a
// quality regression (or unusable input), so CI can gate directly on
// `optchain-bench -diff old.jsonl new.jsonl`.
func runDiff(oldPath, newPath string, tol experiment.Tolerances) int {
	rep, err := experiment.DiffFiles(oldPath, newPath, tol)
	if err != nil {
		fmt.Fprintf(os.Stderr, "optchain-bench: -diff: %v\n", err)
		return 1
	}
	fmt.Printf("quality diff: old=%s new=%s\n", oldPath, newPath)
	if err := rep.Render(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "optchain-bench: -diff: %v\n", err)
		return 1
	}
	if err := rep.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "optchain-bench: %v\n", err)
		return 1
	}
	return 0
}

// runSweep streams one registered sweep through the selected reporter.
// Cancelling ctx (Ctrl-C) stops the sweep; rows completed before the
// interrupt are flushed to the reporter before the error is reported.
func runSweep(ctx context.Context, h interface {
	Report(ctx context.Context, s experiment.Sweep, rep experiment.Reporter) error
	Params() experiment.Params
}, name, reporterSpec, outPath string) (err error) {
	s, err := experiment.BuildSweep(name, h.Params())
	if err != nil {
		return err
	}
	if reporterSpec == "" {
		reporterSpec = "text"
	}
	// Validate the whole reporter spec — name AND option values — before
	// touching -out: a typo must not truncate an existing results file.
	if _, err := experiment.NewReporter(reporterSpec, io.Discard); err != nil {
		return err
	}
	w := os.Stdout
	if outPath != "" {
		f, ferr := os.Create(outPath)
		if ferr != nil {
			return ferr
		}
		// A failed close means the flushed results never reached disk; the
		// run must exit non-zero, not just print a warning.
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}
	rep, err := experiment.NewReporter(reporterSpec, w)
	if err != nil {
		return err
	}
	return h.Report(ctx, s, rep)
}
