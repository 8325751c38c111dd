package experiment_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"optchain/experiment"

	_ "optchain/internal/bench" // registers the named paper sweeps
)

// updateGolden regenerates the committed golden row fixtures:
//
//	go test ./experiment -run TestGoldenRows -update
var updateGolden = flag.Bool("update", false, "regenerate testdata/golden fixtures")

// goldenParams pins every knob that feeds cell identity or simulation
// output, so the fixtures are reproducible on any host. Two workers keep
// the full registry affordable while exercising the parallel path (rows
// are scheduling-independent by contract).
func goldenParams() experiment.Params {
	p := quickParams()
	p.Workers = 2
	return p
}

// goldenPath is the committed fixture for one registered sweep.
func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".jsonl")
}

// TestGoldenRows locks the quality metrics of every registered sweep: each
// sweep runs at the pinned golden parameters and its rows must reproduce
// the committed fixture exactly — a zero-tolerance diff through the same
// comparator the CI quality gate uses, so any placement-quality drift
// anywhere in the stack (placer, simulator, workload generators, cell
// identity) fails loudly with the offending cell named.
func TestGoldenRows(t *testing.T) {
	names := experiment.SweepNames()
	if len(names) == 0 {
		t.Fatal("no registered sweeps")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := experiment.BuildSweep(name, goldenParams())
			if err != nil {
				t.Fatal(err)
			}
			r := experiment.NewRunner(goldenParams())
			rows, err := r.Collect(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			// Host timing is noise, not quality; fixtures store flat data.
			for i := range rows {
				rows[i].WallSeconds = 0
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(goldenPath(name)), 0o755); err != nil {
					t.Fatal(err)
				}
				writeRowsFile(t, goldenPath(name), rows)
				t.Logf("wrote %s (%d rows)", goldenPath(name), len(rows))
				return
			}
			want, err := experiment.DecodeRowsFile(goldenPath(name))
			if err != nil {
				t.Fatalf("%v (regenerate with: go test ./experiment -run TestGoldenRows -update)", err)
			}
			rep, err := experiment.Diff(want, rows, experiment.Tolerances{})
			if err != nil {
				t.Fatal(err)
			}
			// A zero-tolerance Err also fails on a cell added to or dropped
			// from the sweep: update the fixture if that is intended.
			if err := rep.Err(); err != nil {
				var table []byte
				buf := &bytesWriter{}
				if rerr := rep.Render(buf); rerr == nil {
					table = buf.b
				}
				t.Fatalf("%v\n%s", err, table)
			}
		})
	}
}

// bytesWriter is a minimal io.Writer over a byte slice (avoids importing
// bytes just for the failure path).
type bytesWriter struct{ b []byte }

func (w *bytesWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// TestGoldenFixturesCommitted: every registered sweep has a committed
// fixture and every committed fixture matches a registered sweep — the
// golden directory cannot rot as sweeps come and go.
func TestGoldenFixturesCommitted(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating")
	}
	registered := map[string]bool{}
	for _, name := range experiment.SweepNames() {
		registered[name] = true
		if _, err := os.Stat(goldenPath(name)); err != nil {
			t.Errorf("sweep %q has no golden fixture: %v", name, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if ext := filepath.Ext(name); ext != ".jsonl" {
			t.Errorf("unexpected file in testdata/golden: %s", name)
			continue
		}
		sweep := name[:len(name)-len(".jsonl")]
		if !registered[sweep] {
			t.Errorf("stale fixture %s: no registered sweep %q", name, sweep)
		}
	}
}
