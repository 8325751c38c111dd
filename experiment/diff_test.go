package experiment_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optchain/experiment"
)

// qrow builds a minimal quality row for diff tests.
func qrow(id string, tps, cross float64) experiment.Row {
	return experiment.Row{ID: id, Kind: experiment.KindSim, Strategy: "OptChain",
		Shards: 2, Workload: "w", SteadyTPS: tps, CrossFraction: cross}
}

// metricVerdict extracts one metric's verdict from a report cell.
func metricVerdict(t *testing.T, rep *experiment.DiffReport, id, metric string) (experiment.MetricDelta, bool) {
	t.Helper()
	for _, c := range rep.Cells {
		if c.ID != id {
			continue
		}
		for _, m := range c.Metrics {
			if m.Metric == metric {
				return m, true
			}
		}
	}
	return experiment.MetricDelta{}, false
}

// TestDiffMaxShardShare: a placement cell's max shard share regresses
// upward under the cross tolerance, and rows that never recorded one (sim
// rows, rows written before the column) are not compared on it.
func TestDiffMaxShardShare(t *testing.T) {
	prow := func(id string, share float64) experiment.Row {
		return experiment.Row{ID: id, Kind: experiment.KindPlacement, Strategy: "T2S",
			Shards: 16, Workload: "w", CrossFraction: 0.15, MaxShardShare: share}
	}
	old := []experiment.Row{prow("up", 1.1), prow("down", 14.75), prow("flat", 1.1), prow("unrecorded", 0)}
	new := []experiment.Row{prow("up", 1.5), prow("down", 1.1), prow("flat", 1.1), prow("unrecorded", 14.75)}
	rep, err := experiment.Diff(old, new, experiment.Tolerances{CrossFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]experiment.Verdict{
		"up":   experiment.VerdictRegressed,
		"down": experiment.VerdictImproved,
		"flat": experiment.VerdictUnchanged,
	} {
		if m, ok := metricVerdict(t, rep, id, "max_shard_share"); !ok || m.Verdict != want {
			t.Errorf("cell %s: max_shard_share %+v (compared %v), want %s", id, m, ok, want)
		}
	}
	if m, ok := metricVerdict(t, rep, "unrecorded", "max_shard_share"); ok {
		t.Errorf("a row without a recorded share was compared on it: %+v", m)
	}
	if !errors.Is(rep.Err(), experiment.ErrQualityRegression) {
		t.Errorf("gate verdict %v, want ErrQualityRegression", rep.Err())
	}
}

func TestDiffClassification(t *testing.T) {
	tol := experiment.Tolerances{SteadyTPS: 0.05, CrossFraction: 0.05}
	old := []experiment.Row{
		qrow("a", 1000, 0.5), // tps drops 10%: regressed
		qrow("b", 1000, 0.5), // tps rises 10%: improved
		qrow("c", 1000, 0.5), // inside the band: unchanged
		qrow("d", 1000, 0.5), // cross rises 20%: regressed
		qrow("e", 1000, 0),   // cross appears from zero: +inf, regressed
	}
	new := []experiment.Row{
		qrow("a", 900, 0.5),
		qrow("b", 1100, 0.5),
		qrow("c", 1001, 0.49),
		qrow("d", 1000, 0.6),
		qrow("e", 1000, 0.01),
	}
	rep, err := experiment.Diff(old, new, tol)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]experiment.Verdict{
		"a": experiment.VerdictRegressed,
		"b": experiment.VerdictImproved,
		"c": experiment.VerdictUnchanged,
		"d": experiment.VerdictRegressed,
		"e": experiment.VerdictRegressed,
	}
	if len(rep.Cells) != len(want) {
		t.Fatalf("joined %d cells, want %d", len(rep.Cells), len(want))
	}
	for _, c := range rep.Cells {
		if c.Verdict != want[c.ID] {
			t.Errorf("cell %s verdict %s, want %s", c.ID, c.Verdict, want[c.ID])
		}
	}
	if m, ok := metricVerdict(t, rep, "e", "cross_fraction"); !ok || !math.IsInf(m.Rel, 1) {
		t.Errorf("cross appearing from zero: rel = %v, want +inf", m.Rel)
	}
	regressed, improved, unchanged := rep.Counts()
	if regressed != 3 || improved != 1 || unchanged != 1 {
		t.Errorf("counts = %d/%d/%d, want 3/1/1", regressed, improved, unchanged)
	}
	if err := rep.Err(); !errors.Is(err, experiment.ErrQualityRegression) {
		t.Errorf("Err() = %v, want ErrQualityRegression", err)
	} else if !strings.Contains(err.Error(), "a") {
		t.Errorf("Err() %q does not name the first regressed cell", err)
	}
}

// TestDiffZeroToleranceExact: the golden-test oracle — zero tolerances
// demand exact reproduction, so the tiniest delta classifies.
func TestDiffZeroToleranceExact(t *testing.T) {
	old := []experiment.Row{qrow("a", 1000, 0.5)}
	same, err := experiment.Diff(old, []experiment.Row{qrow("a", 1000, 0.5)}, experiment.Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	if err := same.Err(); err != nil {
		t.Fatalf("identical rows at zero tolerance: %v", err)
	}
	drift, err := experiment.Diff(old, []experiment.Row{qrow("a", 999.9999, 0.5)}, experiment.Tolerances{})
	if err != nil {
		t.Fatal(err)
	}
	if err := drift.Err(); !errors.Is(err, experiment.ErrQualityRegression) {
		t.Fatalf("sub-ppm drift at zero tolerance: %v, want ErrQualityRegression", err)
	}
}

func TestDiffNsPerTxOptIn(t *testing.T) {
	mk := func(wall float64) experiment.Row {
		r := qrow("a", 1000, 0.5)
		r.Total = 1000
		r.WallSeconds = wall
		return r
	}
	// Disabled by default: a 3x wall-clock blowup is not a regression.
	rep, err := experiment.Diff([]experiment.Row{mk(1)}, []experiment.Row{mk(3)}, experiment.DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("ns/tx compared while disabled: %v", err)
	}
	// Opted in, the same delta regresses.
	tol := experiment.DefaultTolerances()
	tol.NsPerTx = 0.5
	rep, err = experiment.Diff([]experiment.Row{mk(1)}, []experiment.Row{mk(3)}, tol)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); !errors.Is(err, experiment.ErrQualityRegression) {
		t.Fatalf("ns/tx +200%% at 50%% tolerance: %v, want ErrQualityRegression", err)
	}
	if m, ok := metricVerdict(t, rep, "a", "ns_per_tx"); !ok || m.Verdict != experiment.VerdictRegressed {
		t.Fatalf("ns_per_tx delta = %+v, want regressed", m)
	}
}

// TestDiffMissingAndNewCells: a cell only the old rows hold fails the gate
// unless AllowMissing is set; a cell only the new rows hold fails it either
// way, so a strict diff passes only on equal cell sets.
func TestDiffMissingAndNewCells(t *testing.T) {
	a, gone, fresh := qrow("a", 1000, 0.5), qrow("gone", 1000, 0.5), qrow("fresh", 1000, 0.5)
	strictTol := experiment.DefaultTolerances()
	allowTol := strictTol
	allowTol.AllowMissing = true

	strict, err := experiment.Diff([]experiment.Row{a, gone}, []experiment.Row{a, fresh}, strictTol)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Missing) != 1 || strict.Missing[0] != "gone" || len(strict.New) != 1 || strict.New[0] != "fresh" {
		t.Fatalf("missing/new = %v / %v", strict.Missing, strict.New)
	}

	for _, tc := range []struct {
		name     string
		old, new []experiment.Row
		tol      experiment.Tolerances
		offender string // "" passes the gate
	}{
		{"missing, strict", []experiment.Row{a, gone}, []experiment.Row{a}, strictTol, "gone"},
		{"missing, allowed", []experiment.Row{a, gone}, []experiment.Row{a}, allowTol, ""},
		{"new, strict", []experiment.Row{a}, []experiment.Row{a, fresh}, strictTol, "fresh"},
		{"new, missing allowed", []experiment.Row{a}, []experiment.Row{a, fresh}, allowTol, "fresh"},
		{"both, strict", []experiment.Row{a, gone}, []experiment.Row{a, fresh}, strictTol, "gone"},
		{"both, missing allowed", []experiment.Row{a, gone}, []experiment.Row{a, fresh}, allowTol, "fresh"},
	} {
		rep, err := experiment.Diff(tc.old, tc.new, tc.tol)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err = rep.Err()
		switch {
		case tc.offender == "" && err != nil:
			t.Fatalf("%s: %v, want a pass", tc.name, err)
		case tc.offender != "" && (!errors.Is(err, experiment.ErrQualityRegression) || !strings.Contains(err.Error(), tc.offender)):
			t.Fatalf("%s: %v, want ErrQualityRegression naming %q", tc.name, err, tc.offender)
		}
	}
}

func TestDiffRejectsBadRowSets(t *testing.T) {
	a, b := qrow("a", 1, 0), qrow("b", 1, 0)
	for name, tc := range map[string]struct{ old, new []experiment.Row }{
		"no common cells": {old: []experiment.Row{a}, new: []experiment.Row{b}},
		"duplicate old":   {old: []experiment.Row{a, a}, new: []experiment.Row{a}},
		"duplicate new":   {old: []experiment.Row{a}, new: []experiment.Row{a, a}},
		"empty id":        {old: []experiment.Row{a}, new: []experiment.Row{{}}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := experiment.Diff(tc.old, tc.new, experiment.DefaultTolerances()); !errors.Is(err, experiment.ErrBadCache) {
				t.Fatalf("err = %v, want ErrBadCache", err)
			}
		})
	}
}

// TestDiffInjectedRegression is the gate's acceptance demo: perturbing one
// real sweep row's steady-tps beyond tolerance turns a passing diff into
// ErrQualityRegression, whether the perturbed side is the new run or the
// stored record it is gated against.
func TestDiffInjectedRegression(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	rows, err := r.Collect(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}

	// Identical rows pass the gate.
	rep, err := experiment.Diff(rows, rows, experiment.DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("self-diff: %v", err)
	}

	// Inject a 20% steady-tps drop into one cell.
	perturbed := make([]experiment.Row, len(rows))
	copy(perturbed, rows)
	perturbed[1].SteadyTPS *= 0.8
	rep, err = experiment.Diff(rows, perturbed, experiment.DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); !errors.Is(err, experiment.ErrQualityRegression) || !strings.Contains(err.Error(), perturbed[1].ID) {
		t.Fatalf("injected regression: %v, want ErrQualityRegression naming %s", err, perturbed[1].ID)
	}
	var table bytes.Buffer
	if err := rep.Render(&table); err != nil {
		t.Fatal(err)
	}
	if out := table.String(); !strings.Contains(out, "REGRESSED") || !strings.Contains(out, perturbed[1].ID) {
		t.Fatalf("verdict table does not show the regression:\n%s", out)
	}

	// A stored row set whose recorded throughput is 25% above a fresh run
	// of the same sweep for one cell gates that run as a regression.
	inflated := make([]experiment.Row, len(rows))
	copy(inflated, rows)
	inflated[1].SteadyTPS *= 1.25
	live, err := r.Collect(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	rep, err = experiment.Diff(inflated, live, experiment.DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); !errors.Is(err, experiment.ErrQualityRegression) {
		t.Fatalf("gate against an inflated record: %v, want ErrQualityRegression", err)
	}
}

func writeRowsFile(t *testing.T, path string, rows []experiment.Row) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRowsForms(t *testing.T) {
	jsonl := `{"id":"a","kind":"sim","strategy":"OptChain","shards":2,"workload":"w","txs":10,"cross_fraction":0.5,"steady_tps":100,"wall_seconds":1}
{"id":"b","kind":"sim","strategy":"OptChain","shards":4,"workload":"w","txs":10,"cross_fraction":0.4,"steady_tps":200,"wall_seconds":1}
`
	cacheFile := `{"schema":"optchain-rowcache/v2","seed":1,"validators":4,"n":1200,"table_n":3000,"protocol":"omniledger"}
{"id":"a","kind":"sim","strategy":"OptChain","shards":2,"workload":"w","txs":10,"cross_fraction":0.5,"steady_tps":100,"wall_seconds":0}
`
	for name, tc := range map[string]struct {
		in   string
		ids  []string
		tps0 float64
	}{
		"jsonl": {in: jsonl, ids: []string{"a", "b"}, tps0: 100},
		"cache": {in: cacheFile, ids: []string{"a"}, tps0: 100},
	} {
		t.Run(name, func(t *testing.T) {
			rows, err := experiment.DecodeRows(strings.NewReader(tc.in))
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(tc.ids) {
				t.Fatalf("decoded %d rows, want %d", len(rows), len(tc.ids))
			}
			for i, id := range tc.ids {
				if rows[i].ID != id {
					t.Fatalf("row %d id %q, want %q", i, rows[i].ID, id)
				}
			}
			if rows[0].SteadyTPS != tc.tps0 {
				t.Fatalf("row 0 steady_tps %v, want %v", rows[0].SteadyTPS, tc.tps0)
			}
		})
	}
}

// baselineV6 is a record of the retired BENCH_baseline.json format: its
// schema is unknown to DecodeRows, so it is refused, never read as rows.
const baselineV6 = `{"schema":"optchain-bench-baseline/v6","micro":[],"sim":[{"cell_id":"a","steady_tps":1}],"scenarios":[]}`

func TestDecodeRowsRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"garbage":                "not json at all",
		"row without id":         `{"kind":"sim"}`,
		"duplicate ids":          `{"id":"a"}` + "\n" + `{"id":"a"}`,
		"unknown schema":         `{"schema":"optchain-somethingelse/v1"}`,
		"old cache schema":       `{"schema":"optchain-rowcache/v0"}`,
		"v1 cache schema":        "{\"schema\":\"optchain-rowcache/v1\",\"seed\":1,\"validators\":4}\n{\"id\":\"a\"}",
		"old baseline schema":    `{"schema":"optchain-bench-baseline/v3"}`,
		"baseline record v6":     baselineV6,
		"trailing after record":  baselineV6 + "\n" + `{"id":"b"}`,
		"baseline row sans cell": `{"schema":"optchain-bench-baseline/v6","sim":[{"strategy":"OptChain"}]}`,
		"truncated value":        `{"id":"a","steady_tps":`,
	} {
		t.Run(name, func(t *testing.T) {
			_, err := experiment.DecodeRows(strings.NewReader(in))
			if !errors.Is(err, experiment.ErrBadCache) {
				t.Fatalf("err = %v, want ErrBadCache", err)
			}
			if strings.HasPrefix(in, `{"schema":"optchain-bench-baseline/`) && !strings.Contains(err.Error(), "unknown schema") {
				t.Fatalf("retired baseline record refused for the wrong reason: %v", err)
			}
			if name == "v1 cache schema" && !strings.Contains(err.Error(), `"optchain-rowcache/v1"`) {
				t.Fatalf("v1 cache refused without naming its schema: %v", err)
			}
		})
	}
}

// TestDiffFiles drives the CLI engine end-to-end over the two file forms.
func TestDiffFiles(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	rows, err := r.Collect(context.Background(), tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.jsonl")
	newPath := filepath.Join(dir, "new.jsonl")
	writeRowsFile(t, oldPath, rows)
	writeRowsFile(t, newPath, rows)
	rep, err := experiment.DiffFiles(oldPath, newPath, experiment.DefaultTolerances())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("identical files: %v", err)
	}
	if _, err := experiment.DiffFiles(oldPath, filepath.Join(dir, "absent.jsonl"), experiment.DefaultTolerances()); !errors.Is(err, experiment.ErrBadCache) {
		t.Fatalf("absent file: %v, want ErrBadCache", err)
	}
}
