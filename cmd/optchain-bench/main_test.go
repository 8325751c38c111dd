package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRejectedCombinationsWriteNothing: every flag combination the driver
// refuses exits 2 before any mode runs, so no output file is created. The
// offline -diff mode used to return before the "requires -sweep" check,
// silently dropping -out and -reporter. The rows naming -experiment and
// -list pin that the removed paper-layout mode is refused, not silently run
// as something else; the -merge-cache rows do the same for the removed
// cache merge.
func TestRejectedCombinationsWriteNothing(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "r.txt")
	merged := filepath.Join(dir, "merged.jsonl")
	rows := writeRows(t, dir, "a.jsonl", 100)
	for name, args := range map[string][]string{
		"diff with -out and -reporter": {"-diff", "-out", out, "-reporter", "csv", rows, rows},
		"diff with -out":               {"-diff", "-out", out, rows, rows},
		"diff with -cache":             {"-diff", "-cache", dir, rows, rows},
		"diff with -sweep":             {"-diff", "-sweep", "smoke", "-out", out, rows, rows},
		"diff with -experiment":        {"-diff", "-experiment", "fig4", rows, rows},
		"diff with -stream":            {"-diff", "-stream", rows, rows},
		"diff with one file":           {"-diff", rows},
		"merge with -out":              {"-merge-cache", merged, "-out", out, rows},
		"merge with -diff":             {"-merge-cache", merged, "-diff", rows},
		"merge with -sweep":            {"-merge-cache", merged, "-sweep", "smoke", "-out", out, rows},
		"merge with -stream":           {"-merge-cache", merged, "-stream", rows},
		"merge without inputs":         {"-merge-cache", merged},
		"list with -out":               {"-list", "-out", out},
		"experiment with -out":         {"-experiment", "fig4", "-out", out},
		"experiment with -reporter":    {"-experiment", "fig4", "-reporter", "csv"},
		"sweep and experiment":         {"-sweep", "smoke", "-experiment", "fig4", "-out", out},
		"unknown protocol":             {"-sweep", "smoke", "-protocol", "nope", "-out", out},
		"unknown strategy":             {"-sweep", "smoke", "-strategies", "OptChain,Nope", "-out", out},
		"bad workload":                 {"-sweep", "smoke", "-workload", "hotspt:exp=1.5", "-out", out},
		"bad workload list":            {"-sweep", "scenarios", "-workloads", "hotspot;(", "-out", out},
		"workloads without scenarios":  {"-quick", "-sweep", "smoke", "-workloads", "hotspot", "-reporter", "csv", "-out", out},
		"no mode":                      {"-quick", "-n", "100"},
		"unknown flag":                 {"-baseline-json", out},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if stderr.Len() == 0 {
				t.Fatal("rejected without a message on stderr")
			}
			for _, p := range []string{out, merged} {
				if _, err := os.Stat(p); !os.IsNotExist(err) {
					t.Fatalf("%s exists after a rejected run (stat err %v)", filepath.Base(p), err)
				}
			}
		})
	}
}

// TestOfflineModes: -diff exits 0 on identical rows and inside the
// tolerance, 1 on a regression or an unreadable input; the listings exit 0.
func TestOfflineModes(t *testing.T) {
	dir := t.TempDir()
	old := writeRows(t, dir, "old.jsonl", 100)
	worse := writeRows(t, dir, "worse.jsonl", 80)
	for _, tc := range []struct {
		args []string
		code int
		out  string
	}{
		{[]string{"-diff", old, old}, 0, "1 unchanged"},
		{[]string{"-diff", "-tol-tps", "0.1", old, worse}, 1, "REGRESSED"},
		{[]string{"-diff", "-tol-tps", "0.25", old, worse}, 0, "1 unchanged"},
		{[]string{"-diff", old, filepath.Join(dir, "absent.jsonl")}, 1, ""},
		{[]string{"-list-sweeps"}, 0, "quality"},
		{[]string{"-list-sweeps"}, 0, "fidelity"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stdout.String(), tc.out) {
			t.Fatalf("%v: exit %d, want %d; stdout %q lacks %q (stderr %q)",
				tc.args, code, tc.code, stdout.String(), tc.out, stderr.String())
		}
	}
}

// TestSweepCacheDiff drives the run path end to end on the tiny smoke
// sweep: a cached jsonl run, a second run served from the cache, and exact
// diffs of the two outputs and of the cache file. Used as the ledger, the
// cold rows with one line deleted or one line added (a fresh cell ID) fail
// the exact diff: it passes only on equal cell sets.
func TestSweepCacheDiff(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	cold, warm := filepath.Join(dir, "cold.jsonl"), filepath.Join(dir, "warm.jsonl")
	for _, out := range []string{cold, warm} {
		var stdout, stderr bytes.Buffer
		args := []string{"-quick", "-validators", "8", "-sweep", "smoke", "-reporter", "jsonl", "-cache", cache, "-out", out}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d (stderr %q)", args, code, stderr.String())
		}
	}
	data, err := os.ReadFile(cold)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	deleted := filepath.Join(dir, "deleted.jsonl")
	extra := filepath.Join(dir, "extra.jsonl")
	fresh := `{"id":"sim:fresh/cell","steady_tps":100,"cross_fraction":0.1}` + "\n"
	for path, content := range map[string]string{
		deleted: strings.Join(lines[1:], ""),
		extra:   string(data) + fresh,
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	exact := []string{"-diff", "-tol-tps", "0", "-tol-cross", "0"}
	for _, tc := range []struct {
		old, new string
		code     int
		out      string
	}{
		{cold, warm, 0, "0 missing, 0 new"},
		{filepath.Join(cache, "rows.jsonl"), warm, 0, "0 missing, 0 new"},
		{deleted, warm, 1, "NEW"},
		{extra, warm, 1, "MISSING"},
	} {
		var stdout, stderr bytes.Buffer
		args := append(append([]string{}, exact...), tc.old, tc.new)
		if code := run(args, &stdout, &stderr); code != tc.code || !strings.Contains(stdout.String(), tc.out) {
			t.Fatalf("%v: exit %d, want %d; stdout %q lacks %q (stderr %q)",
				args, code, tc.code, stdout.String(), tc.out, stderr.String())
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sweep", "smoke", "-reporter", "nope", "-out", warm}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown reporter: exit %d, want 1", code)
	}
	if fi, err := os.Stat(warm); err != nil || fi.Size() == 0 {
		t.Fatalf("an unknown reporter truncated the existing -out file (%v)", err)
	}
}

// writeRows writes a one-row jsonl file whose cell has the given
// steady_tps.
func writeRows(t *testing.T, dir, name string, tps int) string {
	t.Helper()
	p := filepath.Join(dir, name)
	row := `{"id":"sim/a","steady_tps":` + strconv.Itoa(tps) + `,"cross_fraction":0.1}` + "\n"
	if err := os.WriteFile(p, []byte(row), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}
