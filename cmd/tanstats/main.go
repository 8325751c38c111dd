// Command tanstats prints the TaN-network characterization of a dataset —
// the statistics of the paper's Fig. 2: degree distributions, cumulative
// fractions, average degree over time, and the node census.
//
// Usage:
//
//	tanstats -i txs.tan
//	tanstats -n 200000                  # generate the bitcoin stream on the fly
//	tanstats -workload hotspot -n 50000 # characterize a scenario stream
//	tanstats -workload "mix:bitcoin=0.8,hotspot=0.2" -n 50000
//
// -workload takes any workload spec (default `bitcoin`, the calibrated
// generator; see SCENARIOS.md for the grammar).
package main

import (
	"flag"
	"fmt"
	"os"

	"optchain"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		in     = flag.String("i", "", "input dataset file (omit to generate)")
		n      = flag.Int("n", 200_000, "transactions to generate when -i is not set")
		seed   = flag.Int64("seed", 1, "generation seed")
		wl     = flag.String("workload", "bitcoin", "workload scenario name[:knob=value,...] to characterize when -i is not set")
		shards = flag.Int("shards", 16, "shard-count hint for feedback-aware workloads")
	)
	flag.Parse()

	var d *optchain.Dataset
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tanstats: %v\n", err)
			return 1
		}
		defer f.Close()
		d, err = optchain.LoadDataset(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tanstats: %v\n", err)
			return 1
		}
	} else {
		var err error
		d, err = optchain.MaterializeWorkload(*wl, optchain.WorkloadParams{
			N: *n, Seed: *seed, Shards: *shards,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "tanstats: %v\n", err)
			return 1
		}
	}

	g, err := d.BuildGraph()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tanstats: %v\n", err)
		return 1
	}
	c := g.TakeCensus()
	fmt.Printf("nodes       %d\n", c.Nodes)
	fmt.Printf("edges       %d\n", c.Edges)
	fmt.Printf("avg degree  %.3f (paper Bitcoin TaN: 2.3)\n", c.AvgInDeg)
	fmt.Printf("coinbase    %d\n", c.Coinbase)
	fmt.Printf("unspent     %d\n", c.Unspent)
	fmt.Printf("isolated    %d\n", c.Isolated)

	in2, out2 := g.DegreeHistograms()
	inCum := optchain.CumulativeFraction(in2)
	outCum := optchain.CumulativeFraction(out2)
	at := func(cum []float64, d int) float64 {
		if d >= len(cum) {
			return 1
		}
		return cum[d]
	}
	fmt.Printf("P(in<3)     %.3f (paper: 0.931)\n", at(inCum, 2))
	fmt.Printf("P(out<3)    %.3f (paper: 0.863)\n", at(outCum, 2))
	fmt.Printf("P(out<10)   %.3f (paper: 0.976)\n", at(outCum, 9))

	fmt.Println("degree distribution (powers of two):")
	fmt.Printf("  %-8s %-12s %-12s\n", "degree", "in-count", "out-count")
	for deg := 1; deg < len(in2) || deg < len(out2); deg *= 2 {
		ic, oc := int64(0), int64(0)
		if deg < len(in2) {
			ic = in2[deg]
		}
		if deg < len(out2) {
			oc = out2[deg]
		}
		fmt.Printf("  %-8d %-12d %-12d\n", deg, ic, oc)
	}

	fmt.Println("average degree over time (deciles):")
	for i, v := range g.AverageDegreeSeries(10) {
		fmt.Printf("  %3d%%: %.3f\n", (i+1)*10, v)
	}
	return 0
}
