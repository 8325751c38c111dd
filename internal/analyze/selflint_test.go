package analyze

import "testing"

// TestRepoLintClean runs the full suite over the repository itself — the
// same invocation as `make lint` — and asserts zero findings. Every contract
// violation on the tree must either be fixed or carry a justified
// annotation; this test keeps the suite's signal at zero noise so a single
// new finding fails CI.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	diags, err := Check("../..", "./...")
	if err != nil {
		t.Fatalf("lint suite failed to run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("repository is not lint-clean: %d finding(s)", len(diags))
	}
}
