// Command optchain-lint runs the repository's custom static-analysis suite
// (internal/analyze): hotpath, lockcheck and spawncheck.
// It prints one `file:line:col: message [analyzer]` line per finding and
// exits non-zero when any contract is violated, so `make lint` and CI can
// gate on it.
//
// Usage:
//
//	optchain-lint [packages]
//
// Patterns default to ./... and are resolved by `go list` relative to the
// current directory. Exit codes: 0 clean, 1 findings, 2 load/internal
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"optchain/internal/analyze"
)

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("optchain-lint", flag.ExitOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: optchain-lint [packages]\n\nAnalyzers:\n")
		for _, a := range analyze.All() {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	fs.Parse(args)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analyze.Check(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "optchain-lint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "optchain-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
