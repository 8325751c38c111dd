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

// TestPolicyRouting pins the package gating: determinism only in decision
// packages, apierrors only on the public surface, annotation-driven checks
// everywhere.
func TestPolicyRouting(t *testing.T) {
	has := func(pkg, name string) bool {
		for _, a := range For(pkg) {
			if a.Name == name {
				return true
			}
		}
		return false
	}
	cases := []struct {
		pkg, analyzer string
		want          bool
	}{
		{"optchain", "determinism", true},
		{"optchain", "apierrors", true},
		{"optchain/internal/core", "determinism", true},
		{"optchain/internal/core", "apierrors", false},
		{"optchain/internal/des", "determinism", true},
		{"optchain/experiment", "determinism", true},
		{"optchain/experiment", "apierrors", true},
		{"optchain/internal/analyze", "determinism", false},
		{"optchain/internal/analyze", "hotpath", true},
		{"optchain/internal/analyze", "lockcheck", true},
		{"optchain/cmd/optchain-bench", "determinism", false},
		{"optchain/cmd/optchain-bench", "apierrors", false},
		// The serving gateway is public API (typed sentinels) but not a
		// decision package — it reads the wall clock for latency
		// histograms; placement decisions stay inside the engine.
		{"optchain/serve", "apierrors", true},
		{"optchain/serve", "determinism", false},
		{"optchain/serve", "spawncheck", true},
		{"optchain/serve", "ctxcheck", true},
		{"optchain/serve", "lockcheck", true},
		// The concurrency-contract pack routes everywhere; spawncheck and
		// ctxcheck additionally no-op inside package main at run time.
		{"optchain", "spawncheck", true},
		{"optchain", "ctxcheck", true},
		{"optchain", "atomiccheck", true},
		{"optchain/internal/bench", "ctxcheck", true},
		{"optchain/cmd/optchain-bench", "spawncheck", true},
		{"optchain/internal/analyze", "atomiccheck", true},
	}
	for _, c := range cases {
		if got := has(c.pkg, c.analyzer); got != c.want {
			t.Errorf("For(%q) includes %s = %v, want %v", c.pkg, c.analyzer, got, c.want)
		}
	}
}
