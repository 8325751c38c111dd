// Command optchain-bench runs the registered sweeps of the optchain/experiment
// layer: the cells behind the OptChain paper's evaluation (ICDCS 2019
// §IV-B and §V), its ablations and the workload-scenario lab, streamed as
// rows through any registered reporter (text, jsonl, csv, or fidelity, which
// sets every figure the paper quotes beside our value and the ratio).
//
// Usage:
//
//	optchain-bench -list-sweeps
//	optchain-bench -sweep table1 -reporter fidelity
//	optchain-bench -sweep peak -reporter fidelity -n 100000
//	optchain-bench -sweep grid -reporter jsonl -out grid.jsonl
//	optchain-bench -sweep grid -protocol rapidchain -strategies OptChain,OmniLedger
//	optchain-bench -sweep peak -reporter csv -workload mix:bitcoin=0.7,hotspot=0.3
//	optchain-bench -sweep peak -workload "replay:trace.tan,mod=(burst:boost=4)"
//	optchain-bench -sweep scenarios                          # workload lab
//	optchain-bench -sweep scenarios -workloads "hotspot;adversarial"
//	optchain-bench -quick -sweep grid -workload "mix:burst=0.5,bitcoin=0.5"
//	optchain-bench -sweep grid -reporter jsonl -out grid.jsonl -cache .sweep-cache
//	optchain-bench -diff old.jsonl new.jsonl
//	optchain-bench -diff -tol-tps 0.1 -tol-cross 0.1 BENCH_quality.jsonl new.jsonl
//
// -cache DIR persists every completed row as JSONL keyed by its stable
// cell ID; re-running the same sweep (or an interrupted one) serves cached
// rows instead of re-simulating, so a killed grid resumes where it died. A
// corrupt cache or one written under a different seed fails loudly with
// ErrBadCache rather than silently recomputing.
//
// -diff OLD NEW joins two row files on cell ID — jsonl sweep output (such
// as the committed BENCH_quality.jsonl ledger) or a row cache, both read by
// experiment.DecodeRows — classifies each quality metric against relative
// tolerances (-tol-tps, -tol-cross, -tol-nstx), prints the verdict table,
// and exits non-zero on any regression and on any cell only one file holds
// (-allow-missing accepts cells only OLD holds); `make sweep-smoke` and
// `make quality-gate` wire this into CI.
//
// The -strategies, -protocol, -workload, -workloads, -sweep and -reporter
// flags resolve through the registries' one name table, so strategies,
// protocols, workloads, sweeps and reporters added with
// optchain.RegisterStrategy / RegisterProtocol / RegisterWorkload or
// experiment.RegisterSweep / RegisterReporter are selectable here too.
// Names match case-insensitively and rows carry the registered spelling,
// so -protocol OmniLedger writes the same cell IDs as -protocol omniledger;
// an unknown name exits 2 (1 for -sweep and -reporter) listing the
// registered set.
//
// -workload selects the stream driving every cell that does not pin one:
// any workload spec (see SCENARIOS.md for the grammar). Simulation cells
// pull it one transaction per issue event, so `mix:`/`replay:` arrival
// modulation (burst, drift Gap shaping) and adversarial feedback bend the
// rows too; a Metis cell streams it as well, but takes its offline
// partition from the spec materialized at the cell's stream length, and
// its source gets no placement feedback. The offline tables place the
// materialized stream. -workloads
// (plural) instead picks the scenario SET of -sweep scenarios, and is
// refused with any other sweep; entries are ','-separated, or
// ';'-separated when a spec itself contains commas (separators inside
// parentheses never split a spec).
//
// -cpuprofile/-memprofile/-trace capture runtime profiles of any run (see
// PERFORMANCE.md).
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
	_ "optchain/internal/bench" // registers the paper's sweeps and the fidelity reporter
	"optchain/internal/profiling"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args over its own flag set and executes one mode, returning
// the process exit code: 0 on success, 1 when the run or comparison fails,
// 2 on a usage error. A usage error is reported before any output file is
// created.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("optchain-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sweep      = fs.String("sweep", "", "registered sweep to stream through -reporter (see -list-sweeps)")
		reporter   = fs.String("reporter", "", "reporter for -sweep (text, jsonl, csv, fidelity; default text)")
		out        = fs.String("out", "", "output file for -sweep (default stdout)")
		cacheDir   = fs.String("cache", "", "row-cache directory for -sweep: completed rows persist keyed by cell ID and re-runs resume instead of re-simulating")
		diffMode   = fs.Bool("diff", false, "compare two row files (OLD NEW as positional args; jsonl sweep output or a row cache) and exit non-zero on quality regression or a cell only one file holds")
		tolTPS     = fs.Float64("tol-tps", 0.05, "-diff relative tolerance on steady_tps (regresses downward)")
		tolCross   = fs.Float64("tol-cross", 0.05, "-diff relative tolerance on cross_fraction (regresses upward)")
		tolNsTx    = fs.Float64("tol-nstx", 0, "-diff relative tolerance on wall ns/tx (0 = not compared; host noise)")
		allowMiss  = fs.Bool("allow-missing", false, "-diff: accept cells present in OLD but absent from NEW (gating a subset run against a fuller row set)")
		listSweeps = fs.Bool("list-sweeps", false, "list registered sweeps and reporters, then exit")
		n          = fs.Int("n", 60_000, "transactions per simulation run")
		tableN     = fs.Int("table-n", 200_000, "transactions for offline tables")
		seed       = fs.Int64("seed", 1, "random seed")
		validators = fs.Int("validators", 400, "validators per shard committee")
		workers    = fs.Int("workers", 0, "parallel simulation workers (0 = NumCPU)")
		quick      = fs.Bool("quick", false, "shrink all grids for a fast smoke pass")
		protocol   = fs.String("protocol", "", "commit protocol for the sweeps (default omniledger)")
		strategies = fs.String("strategies", "", "comma-separated strategy set for the sweeps that compare the default set (default: paper's four)")
		wl         = fs.String("workload", "", "workload spec driving every cell that does not pin one (default: calibrated bitcoin generator)")
		workloads  = fs.String("workloads", "", "workload-scenario set for -sweep scenarios; ','-separated, or ';'-separated when a spec contains commas (a trailing ';' forces that mode); default: all standalone registered")
	)
	var prof profiling.Config
	prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Reporter knobs without a sweep would be silently inert; fail first,
	// before any mode (the offline ones included) runs or writes a file.
	if *sweep == "" {
		for _, f := range []struct{ name, val string }{{"-reporter", *reporter}, {"-out", *out}, {"-cache", *cacheDir}} {
			if f.val != "" {
				fmt.Fprintf(stderr, "optchain-bench: %s %q requires -sweep (see -list-sweeps)\n", f.name, f.val)
				return 2
			}
		}
	}
	if *workloads != "" && !strings.EqualFold(strings.TrimSpace(*sweep), "scenarios") {
		fmt.Fprintf(stderr, "optchain-bench: -workloads %q applies to -sweep scenarios only\n", *workloads)
		return 2
	}
	if *listSweeps {
		fmt.Fprintln(stdout, "sweeps:")
		for _, name := range experiment.SweepNames() {
			fmt.Fprintf(stdout, "  %-12s %s\n", name, experiment.SweepDescription(name))
		}
		fmt.Fprintf(stdout, "reporters: %s\n", strings.Join(experiment.Reporters(), " "))
		return 0
	}
	// -diff is an offline file operation; combining it with a run mode
	// would leave one of the two silently undone.
	if *diffMode {
		if *sweep != "" {
			fmt.Fprintln(stderr, "optchain-bench: -sweep and -diff are mutually exclusive")
			return 2
		}
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: optchain-bench -diff [-tol-tps F] [-tol-cross F] [-tol-nstx F] [-allow-missing] OLD NEW")
			return 2
		}
		tol := experiment.Tolerances{
			SteadyTPS:     *tolTPS,
			CrossFraction: *tolCross,
			NsPerTx:       *tolNsTx,
			AllowMissing:  *allowMiss,
		}
		return runDiff(stdout, stderr, fs.Arg(0), fs.Arg(1), tol)
	}
	if *sweep == "" {
		fmt.Fprintln(stderr, "optchain-bench: no mode given: -sweep NAME (see -list-sweeps) or -diff OLD NEW")
		return 2
	}

	params := experiment.Params{
		N:          *n,
		TableN:     *tableN,
		Seed:       *seed,
		Validators: *validators,
		Workers:    *workers,
		Quick:      *quick,
		CacheDir:   *cacheDir,
	}
	if *protocol != "" {
		if err := optchain.CheckProtocol(*protocol); err != nil {
			fmt.Fprintf(stderr, "optchain-bench: -protocol: %v\n", err)
			return 2
		}
		params.Protocol = *protocol
	}
	if *strategies != "" {
		for _, name := range strings.Split(*strategies, ",") {
			if err := optchain.CheckStrategy(name); err != nil {
				fmt.Fprintf(stderr, "optchain-bench: -strategies: %v\n", err)
				return 2
			}
			params.Strategies = append(params.Strategies, strings.TrimSpace(name))
		}
	}
	if *wl != "" {
		if _, _, err := optchain.ParseWorkloadSpec(*wl); err != nil {
			fmt.Fprintf(stderr, "optchain-bench: -workload: %v\n", err)
			return 2
		}
		params.Workload = *wl
	}
	if *workloads != "" {
		specs, err := optchain.SplitWorkloadList(*workloads)
		if err != nil {
			fmt.Fprintf(stderr, "optchain-bench: -workloads: %v\n", err)
			return 2
		}
		params.Workloads = specs
	}

	// Ctrl-C cancels the sweep between cells instead of killing mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(stderr, "optchain-bench: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "optchain-bench: %v\n", err)
		}
	}()

	start := time.Now()
	if err := runSweep(ctx, experiment.NewRunner(params), stdout, *sweep, *reporter, *out); err != nil {
		fmt.Fprintf(stderr, "optchain-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "done in %.1fs\n", time.Since(start).Seconds())
	return 0
}

// runDiff joins two row files on cell identity, renders the verdict table,
// and returns the process exit code: 0 when the gate passes, 1 on a
// quality regression (or unusable input), so CI can gate directly on
// `optchain-bench -diff old.jsonl new.jsonl`.
func runDiff(stdout, stderr io.Writer, oldPath, newPath string, tol experiment.Tolerances) int {
	rep, err := experiment.DiffFiles(oldPath, newPath, tol)
	if err != nil {
		fmt.Fprintf(stderr, "optchain-bench: -diff: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "quality diff: old=%s new=%s\n", oldPath, newPath)
	if err := rep.Render(stdout); err != nil {
		fmt.Fprintf(stderr, "optchain-bench: -diff: %v\n", err)
		return 1
	}
	if err := rep.Err(); err != nil {
		fmt.Fprintf(stderr, "optchain-bench: %v\n", err)
		return 1
	}
	return 0
}

// runSweep streams one registered sweep through the selected reporter.
// Cancelling ctx (Ctrl-C) stops the sweep; rows completed before the
// interrupt are flushed to the reporter before the error is reported.
func runSweep(ctx context.Context, r *experiment.Runner, stdout io.Writer, name, reporter, outPath string) (err error) {
	s, err := experiment.BuildSweep(name, r.Params())
	if err != nil {
		return err
	}
	if reporter == "" {
		reporter = "text"
	}
	// Validate the reporter name before touching -out: a typo must not
	// truncate an existing results file.
	if _, err := experiment.NewReporter(reporter, io.Discard); err != nil {
		return err
	}
	w := stdout
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
	rep, err := experiment.NewReporter(reporter, w)
	if err != nil {
		return err
	}
	return r.Report(ctx, s, rep)
}
