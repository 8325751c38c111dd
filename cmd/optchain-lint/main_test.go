package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRunExitCodes: a clean package exits 0 and prints nothing, a package
// with findings exits 1 and prints one `file:line:col: message [analyzer]`
// line per finding, and a pattern that fails to load exits 2.
func TestRunExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("package load in -short mode")
	}
	lint := func(pattern string) (int, string, string) {
		var out, errBuf bytes.Buffer
		code := run(&out, &errBuf, []string{pattern})
		return code, out.String(), errBuf.String()
	}

	if code, out, stderr := lint("../../internal/des"); code != 0 || out != "" || stderr != "" {
		t.Errorf("clean package: exit %d, stdout %q, stderr %q; want 0 and no output", code, out, stderr)
	}

	code, out, stderr := lint("../../internal/analyze/testdata/spawncheck")
	if code != 1 || !strings.Contains(stderr, "finding(s)") {
		t.Errorf("package with findings: exit %d, stderr %q; want 1 and a finding count", code, stderr)
	}
	finding := regexp.MustCompile(`^\S+/corpus\.go:\d+:\d+: \S.* \[spawncheck\]$`)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	for _, line := range lines {
		if !finding.MatchString(line) {
			t.Errorf("finding line %q is not file:line:col: message [analyzer]", line)
		}
	}
	if out == "" {
		t.Error("package with findings printed none")
	}

	if code, _, stderr := lint("../../no/such/package"); code != 2 || stderr == "" {
		t.Errorf("unloadable pattern: exit %d, stderr %q; want 2 and an error", code, stderr)
	}
}
