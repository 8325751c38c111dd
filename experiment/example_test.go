package experiment_test

import (
	"context"
	"fmt"
	"log"

	"optchain/experiment"
)

// Define a declarative experiment grid in a few lines and stream its typed
// rows as they complete: OptChain against hash-random placement over a
// small shards × rate grid, with 8-validator committees so it runs in
// milliseconds. Runner.Report feeds the same rows to a reporter from
// NewReporter ("text", "jsonl", "csv", ...), as cmd/optchain-bench does.
func ExampleRunner_Stream() {
	r := experiment.NewRunner(experiment.Params{N: 2000, Seed: 1, Validators: 8})
	sweep := experiment.Sweep{
		Name:       "demo",
		Strategies: []string{"OptChain", "OmniLedger"},
		Shards:     []int{4, 8},
		Rates:      []float64{1000, 2000},
	}

	byStrategy := map[string][]experiment.Row{}
	inOrder, committed := true, true
	n := 0
	for row, err := range r.Stream(context.Background(), sweep) {
		if err != nil {
			log.Fatal(err)
		}
		inOrder = inOrder && row.Index == n
		committed = committed && row.Committed == row.Total
		byStrategy[row.Strategy] = append(byStrategy[row.Strategy], row)
		n++
	}
	// Rows arrive in canonical cell order, so the i-th row of each
	// strategy is the same (shards, rate) cell.
	fewerCross, faster := true, true
	for i, opt := range byStrategy["OptChain"] {
		random := byStrategy["OmniLedger"][i]
		fewerCross = fewerCross && opt.CrossFraction < random.CrossFraction
		faster = faster && opt.AvgLatencySec < random.AvgLatencySec
	}
	fmt.Printf("%d rows streamed in cell order: %v\n", n, inOrder)
	fmt.Printf("every cell committed its whole stream: %v\n", committed)
	fmt.Printf("OptChain is cross-shard less often in every cell: %v\n", fewerCross)
	fmt.Printf("OptChain confirms faster on average in every cell: %v\n", faster)
	// Output:
	// 8 rows streamed in cell order: true
	// every cell committed its whole stream: true
	// OptChain is cross-shard less often in every cell: true
	// OptChain confirms faster on average in every cell: true
}
