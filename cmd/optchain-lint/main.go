// Command optchain-lint runs the repository's custom static-analysis suite
// (internal/analyze): determinism, hotpath, lockcheck, apierrors, and the
// concurrency-contract pack — spawncheck, ctxcheck, atomiccheck.
// It exits non-zero when any contract is violated, so `make lint` and CI can
// gate on it.
//
// Usage:
//
//	optchain-lint [-json] [-out file] [packages]
//
// Patterns default to ./... and are resolved by `go list` relative to the
// current directory.
//
// -json replaces the line-oriented output with one machine-readable
// document (schema optchain-lint/v1): findings sorted by (file, line,
// column, analyzer), file paths repo-relative with forward slashes. The
// bytes are stable across runs on an unchanged tree, so CI can archive and
// diff them. -out writes the report to a file instead of stdout (the
// findings still gate the exit status). Exit codes: 0 clean, 1 findings,
// 2 load/internal error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"optchain/internal/analyze"
)

// jsonReport is the -json document, schema optchain-lint/v1.
type jsonReport struct {
	Schema   string        `json:"schema"`
	Findings []jsonFinding `json:"findings"`
}

// jsonFinding is one diagnostic with a repo-relative slash path, so reports
// diff cleanly across machines and operating systems.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Stdout, os.Stderr, os.Args[1:]))
}

func run(stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("optchain-lint", flag.ExitOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the optchain-lint/v1 JSON report instead of line output")
	outPath := fs.String("out", "", "write the report to this file instead of stdout")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: optchain-lint [-json] [-out file] [packages]\n\nAnalyzers:\n")
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

	w := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "optchain-lint:", err)
			return 2
		}
		defer f.Close()
		w = f
	}
	if *asJSON {
		if err := writeJSON(w, diags); err != nil {
			fmt.Fprintln(stderr, "optchain-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(w, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "optchain-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// writeJSON renders the diagnostics as the stable v1 document. Check already
// sorts by (file, line, column, analyzer); paths are relativized against the
// working directory and slash-normalized so two runs on the same tree are
// byte-identical regardless of where the tree lives.
func writeJSON(w io.Writer, diags []analyze.Diagnostic) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	rep := jsonReport{Schema: "optchain-lint/v1", Findings: []jsonFinding{}}
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = rel
		}
		rep.Findings = append(rep.Findings, jsonFinding{
			Analyzer: d.Analyzer,
			File:     filepath.ToSlash(file),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
