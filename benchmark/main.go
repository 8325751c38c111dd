// Command benchmark is the repository's performance benchmark: for each of
// three workloads it places, restarts, serves and simulates in interleaved
// sub-second slices timed in millisecond segments, verifies every output,
// and reports 13 end-to-end metrics; run with -trace 1 it reports the
// per-layer metrics instead and writes the spans it recorded around every
// call into a layer. README.md explains the workloads, the metrics and the
// estimator.
//
//	bash benchmark/run.sh                       every workload, end to end
//	bash benchmark/run.sh -trace 1              every workload, per layer
//	bash benchmark/run.sh -aa 5                 five runs each: the spread beside the bound
//	bash benchmark/run.sh -workload mix-ids -seed 7 -seconds 30 -trace 0
//
// With -workload the last line printed is the one JSON object the
// acceptance driver reads; without it the last line is a summary of every
// workload that ends with "claim": null.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run (default: all of "+strings.Join(workloadNames(), ", ")+")")
	seed := flag.Int64("seed", 1, "workload seed: the only source of randomness in the inputs")
	seconds := flag.Int("seconds", 30, "measuring time per run: 12 rounds, more (to 20) while they fit, fewer (from 8) on a host too slow for 12")
	trace := flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
	aa := flag.Int("aa", 0, "run each workload this many times and print every metric's spread beside its bound")
	seedStep := flag.Int64("seedstep", 0, "with -aa: run i uses seed+i*seedstep (0 repeats one seed: exact metrics must not move)")
	scratch := flag.String("scratch", ".bench_build", "directory for the trace and the files the traced run has the program write")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *aa < 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
			os.Exit(2)
		}
	}

	env := environment()
	fmt.Printf("environment: %s\n", mustJSON(env))
	var results []*result
	failed := false
	for _, w := range selected {
		var runs []*result
		for i := 0; i < max(*aa, 1); i++ {
			res, err := runOnce(w, *seed+int64(i)**seedStep, time.Duration(*seconds)*time.Second, *trace == 1, *scratch)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				os.Exit(1)
			}
			printResult(os.Stdout, res)
			failed = failed || res.Failed > 0
			runs = append(runs, res)
		}
		if *aa > 0 {
			printSpread(os.Stdout, w.name, runs)
		}
		results = append(results, runs...)
	}

	fmt.Println(mustJSON(struct {
		Benchmark   string         `json:"benchmark"`
		Environment map[string]any `json:"environment"`
		Results     []*result      `json:"results"`
		Claim       *string        `json:"claim"`
	}{"optchain place/restart/serve/sim", env, results, nil}))
	if *name != "" && *aa == 0 {
		fmt.Println(contractLine(results[0]))
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchmark: verification failed")
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// runOnce measures one workload once, end to end or traced.
func runOnce(w workloadDef, seed int64, budget time.Duration, traced bool, scratch string) (*result, error) {
	r := &runner{
		w: w, seed: seed, budget: budget, scratch: scratch,
		samples: make(map[string][][]float64), exact: make(map[string]float64),
		once: make(map[string]float64), tallies: make(map[string]*tally),
	}
	if traced {
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			return nil, err
		}
		r.tr = newTracer()
		r.tb = r.tr.buf(spanCap)
	}
	if err := r.measure(); err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.name, Seed: seed, Traced: traced, Rounds: r.round,
		TailPct: r.once["serve_tail_pct"], TailOf: int(r.once["serve_samples"]), Noisy: r.noisyShare(),
	}
	for _, phase := range r.tallyOrd {
		t := r.tallies[phase]
		res.Phases = append(res.Phases, phaseCount{phase, t.failed, t.attempted})
		res.Attempted += t.attempted
		res.Failed += t.failed
	}
	if !traced {
		res.Metrics = r.endToEnd()
		return res, nil
	}
	var err error
	if res.Metrics, err = r.perLayer(); err != nil {
		return nil, err
	}
	res.Trace = filepath.Join(scratch, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	return res, r.tr.write(res.Trace)
}

// contractLine is the result in the form the acceptance driver reads.
func contractLine(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, d := range res.defs() {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	return mustJSON(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only the program's own plain structs reach here
	}
	return string(b)
}

// environment records where the numbers were taken.
func environment() map[string]any {
	env := map[string]any{
		"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "gogc": os.Getenv("GOGC"),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}
