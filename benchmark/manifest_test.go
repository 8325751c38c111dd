package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// The acceptance driver refuses a manifest outside these limits before a
// single run.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricTablesAreWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("malformed metric %+v", d)
		}
		if seen[d.Name] {
			t.Errorf("metric %s declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("malformed workload %q: %q", w.name, w.why)
		}
		seen[w.name] = true
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads", len(endToEnd), len(perLayer), len(workloads))
	}
}

// BENCHMARK.json at the repository root declares to the acceptance driver
// what this program reports; the two must say the same thing.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no manifest beside the module: %v", err)
	}
	var m struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, program %q %q", i, m.Workloads[i], w.name, w.why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d+%d metrics, program %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, d := range endToEnd {
		if got := (metricDef{m.EndToEnd[i].Name, m.EndToEnd[i].Unit, m.EndToEnd[i].Better, m.EndToEnd[i].Bound}); got != d {
			t.Errorf("end_to_end[%d]: manifest %+v, program %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		setup = setup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !setup {
		t.Error("no setup_s among the end-to-end metrics")
	}
	for i, d := range perLayer {
		if got := (metricDef{Name: m.PerLayer[i].Name, Unit: m.PerLayer[i].Unit, Better: m.PerLayer[i].Better}); got != d {
			t.Errorf("per_layer[%d]: manifest %+v, program %+v", i, got, d)
		}
	}
}
