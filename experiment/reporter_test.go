package experiment_test

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"optchain/experiment"
)

func TestReporterRegistry(t *testing.T) {
	for _, want := range []string{"text", "jsonl", "csv"} {
		if _, err := experiment.NewReporter(want, &strings.Builder{}); err != nil {
			t.Fatalf("built-in reporter %q: %v", want, err)
		}
	}
	// The retired baseline record writer and live-sweep diff gate are gone:
	// rows go out as jsonl and are gated with Diff (optchain-bench -diff).
	// Reporter specs are bare names: there are no "name:key=value" options.
	for _, gone := range []string{"baseline", "diff:old=rows.jsonl", "csv:header=off"} {
		if _, err := experiment.NewReporter(gone, &strings.Builder{}); !errors.Is(err, experiment.ErrUnknownReporter) {
			t.Fatalf("NewReporter(%q) err = %v, want ErrUnknownReporter", gone, err)
		}
	}
}

// TestReporterEquivalence proves the JSONL, CSV, and text reporters carry
// identical numbers for the same seed: every shared field of every row
// must be value-equal across the three serializations.
func TestReporterEquivalence(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	s := tinySweep()

	var jsonlOut, csvOut, textOut strings.Builder
	for _, rep := range []struct {
		spec string
		w    *strings.Builder
	}{
		{"jsonl", &jsonlOut}, {"csv", &csvOut}, {"text", &textOut},
	} {
		sink, err := experiment.NewReporter(rep.spec, rep.w)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Report(context.Background(), s, sink); err != nil {
			t.Fatal(err)
		}
	}

	// Parse JSONL rows.
	var jsonRows []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(jsonlOut.String()), "\n") {
		m := map[string]any{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("jsonl line %q: %v", line, err)
		}
		jsonRows = append(jsonRows, m)
	}

	// The jsonl stream reads back through DecodeRows, and every row carries
	// its identity and, being a sim cell, a commit count and throughput.
	rows, err := experiment.DecodeRows(strings.NewReader(jsonlOut.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		if row.Sweep != s.Name || row.Index != i || row.Kind != experiment.KindSim ||
			row.Strategy == "" || row.Workload == "" || row.Shards < 1 {
			t.Fatalf("jsonl row %d lacks its identity: %+v", i, row)
		}
		if row.Committed <= 0 || row.SteadyTPS <= 0 {
			t.Fatalf("jsonl row %d (%s) committed %d at %v tx/s", i, row.ID, row.Committed, row.SteadyTPS)
		}
	}

	// Parse CSV rows into name->value maps.
	recs, err := csv.NewReader(strings.NewReader(csvOut.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(jsonRows)+1 {
		t.Fatalf("csv rows = %d, jsonl rows = %d", len(recs)-1, len(jsonRows))
	}
	header := recs[0]
	csvRows := make([]map[string]string, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		m := map[string]string{}
		for i, name := range header {
			m[name] = rec[i]
		}
		csvRows = append(csvRows, m)
	}

	// Parse the text table (whitespace-aligned; same canonical values).
	textLines := strings.Split(strings.TrimSpace(textOut.String()), "\n")
	// line 0: sweep banner, line 1: header, then rows.
	if len(textLines) != len(jsonRows)+2 {
		t.Fatalf("text lines = %d:\n%s", len(textLines), textOut.String())
	}
	textHeader := strings.Fields(textLines[1])
	textRows := make([]map[string]string, 0, len(jsonRows))
	for _, line := range textLines[2:] {
		fields := strings.Fields(line)
		if len(fields) != len(textHeader) {
			t.Fatalf("text row field count %d vs header %d: %q", len(fields), len(textHeader), line)
		}
		m := map[string]string{}
		for i, name := range textHeader {
			m[name] = fields[i]
		}
		textRows = append(textRows, m)
	}

	// Every canonical numeric field must agree across the three sinks.
	numeric := []string{"shards", "rate", "total", "committed", "steady_tps",
		"throughput_tps", "avg_latency_sec", "max_latency_sec", "p50_sec",
		"p99_sec", "retries", "aborts", "peak_queue", "cross_fraction", "cross"}
	stringly := []string{"id", "sweep", "strategy", "protocol", "workload"}
	for i := range jsonRows {
		for _, f := range numeric {
			jv := jsonNum(t, jsonRows[i], f)
			cv := parseNum(t, f, csvRows[i][f])
			if jv != cv {
				t.Fatalf("row %d field %s: jsonl %v vs csv %v", i, f, jv, cv)
			}
			if tv, ok := textRows[i][f]; ok { // text shows a column subset
				if parseNum(t, f, tv) != jv {
					t.Fatalf("row %d field %s: text %v vs jsonl %v", i, f, tv, jv)
				}
			}
		}
		for _, f := range stringly {
			js, _ := jsonRows[i][f].(string)
			if js != csvRows[i][f] {
				t.Fatalf("row %d field %s: jsonl %q vs csv %q", i, f, js, csvRows[i][f])
			}
			if tv, ok := textRows[i][f]; ok && tv != js {
				t.Fatalf("row %d field %s: text %q vs jsonl %q", i, f, tv, js)
			}
		}
	}
}

// jsonNum reads a numeric field from a decoded JSONL row (absent fields
// are zero: omitempty).
func jsonNum(t *testing.T, m map[string]any, field string) float64 {
	t.Helper()
	v, ok := m[field]
	if !ok {
		return 0
	}
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("field %s is %T", field, v)
	}
	return f
}

func parseNum(t *testing.T, field, s string) float64 {
	t.Helper()
	if s == "" {
		return 0
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("field %s value %q: %v", field, s, err)
	}
	return f
}

func TestSweepRegistry(t *testing.T) {
	if err := experiment.RegisterSweep("tiny", "", nil); !errors.Is(err, experiment.ErrBadRegistration) {
		t.Fatalf("nil builder err = %v, want ErrBadRegistration", err)
	}
	if _, err := experiment.BuildSweep("definitely-not-registered", quickParams()); !errors.Is(err, experiment.ErrUnknownSweep) {
		t.Fatalf("err = %v", err)
	}
}

// failingBegin errors in Begin and records whether End still ran — the
// Reporter contract promises End on every failure path.
type failingBegin struct{ ended bool }

func (f *failingBegin) Begin(experiment.Sweep, experiment.Params) error {
	return errors.New("begin failed")
}
func (f *failingBegin) Row(experiment.Row) error { return nil }
func (f *failingBegin) End() error               { f.ended = true; return nil }

func TestReportEndsReporterWhenBeginFails(t *testing.T) {
	r := experiment.NewRunner(quickParams())
	rep := &failingBegin{}
	if err := r.Report(context.Background(), tinySweep(), rep); err == nil {
		t.Fatal("Begin failure not propagated")
	}
	if !rep.ended {
		t.Fatal("End did not run after Begin failed")
	}
}
