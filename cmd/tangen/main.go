// Command tangen produces transaction datasets in the binary stream format
// understood by the rest of the toolchain (.tan). Two sources:
//
//   - any registered workload scenario via -workload (default `bitcoin`,
//     the calibrated Bitcoin-like generator with the TaN-network
//     statistics of the paper's Fig. 2; hotspot, burst, adversarial,
//     drift, mix compositions, ... — see -list), with knobs passed inline,
//   - a real Bitcoin trace excerpt via -from-csv / -from-json: txid-keyed
//     extracts are rewritten to positional references and validated, so
//     published trace excerpts feed `replay:` directly, recorded
//     per-output values included.
//
// Usage:
//
//	tangen -n 1000000 -seed 7 -o txs.tan
//	tangen -workload "bitcoin:communities=16,intra=0.8" -n 200000 -o clustered.tan
//	tangen -workload "hotspot:exp=1.5" -n 200000 -o hot.tan
//	tangen -workload adversarial -shards 16 -n 100000 -o adv.tan
//	tangen -workload "mix:bitcoin=0.7,hotspot=0.3" -n 500000 -o mixed.tan
//	tangen -from-csv excerpt.csv -skip-foreign -o real.tan
//	tangen -from-json excerpt.json -o real.tan
//	tangen -list
//
// The full spec grammar (mix composition, replay, knobs per scenario) and
// the real-trace ingestion pipeline (excerpt formats, foreign-input
// handling, end-to-end example) are documented in SCENARIOS.md.
//
// -from-csv expects `txid,inputs,outputs` records ('|'-separated
// txid:vout outpoints and output values; header optional); -from-json an
// array or JSONL stream of {"txid","inputs","outputs"} objects. Inputs
// referencing transactions outside the excerpt fail by default, naming the
// txid; -skip-foreign drops them instead (the spend is treated as
// externally funded), keeping the excerpt's internal lineage intact.
//
// Every generator takes its knobs through the -workload spec (the bitcoin
// generator's are communities, intra, hubevery and hubfanout).
// Feedback-aware scenarios (adversarial) materialize against their
// hash-placement fallback — the assignment OmniLedger would produce for
// -shards shards.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"optchain"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		n           = flag.Int("n", 100_000, "number of transactions")
		seed        = flag.Int64("seed", 1, "random seed")
		out         = flag.String("o", "", "output file (default stdout)")
		wl          = flag.String("workload", "bitcoin", "workload scenario name[:knob=value,...]")
		fromCSV     = flag.String("from-csv", "", "convert a txid-keyed CSV trace excerpt to .tan instead of generating")
		fromJSON    = flag.String("from-json", "", "convert a JSON/JSONL trace excerpt to .tan instead of generating")
		skipForeign = flag.Bool("skip-foreign", false, "drop inputs referencing transactions outside the excerpt (default: error naming the txid)")
		shards      = flag.Int("shards", 16, "shard-count hint for feedback-aware workloads")
		list        = flag.Bool("list", false, "list registered workload scenarios, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Printf("workloads: %s\n", strings.Join(optchain.Workloads(), " "))
		return 0
	}
	if *fromCSV != "" && *fromJSON != "" {
		fmt.Fprintln(os.Stderr, "tangen: -from-csv and -from-json are mutually exclusive")
		return 2
	}
	if *skipForeign && *fromCSV == "" && *fromJSON == "" {
		fmt.Fprintln(os.Stderr, "tangen: -skip-foreign requires -from-csv or -from-json")
		return 2
	}
	if *fromCSV != "" || *fromJSON != "" {
		// Generator flags are silently inert in conversion mode; fail
		// loudly instead (the excerpt alone defines the stream).
		inert := ""
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "n", "seed", "shards", "workload":
				inert = f.Name
			}
		})
		if inert != "" {
			fmt.Fprintf(os.Stderr, "tangen: -%s does not apply to a trace conversion (the excerpt defines the stream)\n", inert)
			return 2
		}
	}

	var d *optchain.Dataset
	var err error
	if *fromCSV != "" || *fromJSON != "" {
		d, err = convertTrace(*fromCSV, *fromJSON, *skipForeign)
	} else {
		// The full spec passes through unchanged, so mix compositions and
		// replay arguments materialize exactly as they would stream.
		d, err = optchain.MaterializeWorkload(*wl, optchain.WorkloadParams{
			N:      *n,
			Seed:   *seed,
			Shards: *shards,
		})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tangen: %v\n", err)
		return 1
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tangen: %v\n", err)
			return 1
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "tangen: close: %v\n", err)
			}
		}()
		w = f
	}
	if err := d.Encode(w); err != nil {
		fmt.Fprintf(os.Stderr, "tangen: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wrote %d transactions\n", d.Len())
	return 0
}

// convertTrace converts one real-trace excerpt file (CSV or JSON).
func convertTrace(csvPath, jsonPath string, skipForeign bool) (*optchain.Dataset, error) {
	path := csvPath
	if path == "" {
		path = jsonPath
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cfg := optchain.TraceConvertConfig{SkipForeign: skipForeign}
	var d *optchain.Dataset
	var foreign int64
	if csvPath != "" {
		d, foreign, err = optchain.ConvertTraceCSV(f, cfg)
	} else {
		d, foreign, err = optchain.ConvertTraceJSON(f, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if foreign > 0 {
		fmt.Fprintf(os.Stderr, "dropped %d foreign input(s) referencing transactions outside the excerpt\n", foreign)
	}
	return d, nil
}
