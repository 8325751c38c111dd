package analyze

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		APIErrors,
		Atomiccheck,
		Ctxcheck,
		Determinism,
		Hotpath,
		Lockcheck,
		Spawncheck,
	}
}

// decisionPackages are the packages whose code decides placement: everything
// on the path from transaction stream to emitted rows must be reproducible,
// so the determinism analyzer runs only here. Telemetry-adjacent code (cmd/
// binaries printing wall-clock timestamps, internal/analyze itself) is
// exempt by omission.
var decisionPackages = []string{
	"optchain",
	"optchain/experiment",
	"optchain/internal/chain",
	"optchain/internal/core",
	"optchain/internal/des",
	"optchain/internal/placement",
	"optchain/internal/workload",
}

// apiPackages are the exported surface: the root package, the experiment
// harness, and the serving gateway. Only these are held to the
// typed-sentinel error contract — internal packages may panic on invariant
// violations. serve is deliberately NOT a decision package: it reads the
// wall clock for latency histograms and snapshot timestamps, which the
// determinism contract forbids; placement decisions stay inside the engine.
var apiPackages = []string{
	"optchain",
	"optchain/experiment",
	"optchain/serve",
}

func inList(path string, list []string) bool {
	for _, p := range list {
		if path == p {
			return true
		}
	}
	return false
}

// For selects which analyzers apply to a package. Annotation- and
// structure-driven checks (hotpath, lockcheck, and the concurrency-contract
// pack: spawncheck, ctxcheck, atomiccheck) run everywhere — they
// fire only on annotated or structurally implicated code, and spawncheck and
// ctxcheck exempt package main themselves — while the policy gates
// determinism to decision packages and apierrors to the public surface.
func For(pkgPath string) []*Analyzer {
	var out []*Analyzer
	for _, a := range All() {
		switch a {
		case Determinism:
			if !inList(pkgPath, decisionPackages) {
				continue
			}
		case APIErrors:
			if !inList(pkgPath, apiPackages) {
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// Check loads the packages matching patterns (resolved relative to dir) and
// runs the policy-selected analyzers over each, returning all findings in
// stable order. This is the single entry point behind both cmd/optchain-lint
// and the self-lint test.
func Check(dir string, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		// cmd/ binaries and the analyzer package itself are tool code: they
		// print, they read the clock, they are not in any contract's scope
		// beyond the annotation-driven checks.
		for _, a := range For(pkg.ImportPath) {
			ds, err := RunAnalyzer(a, pkg)
			if err != nil {
				return nil, err
			}
			all = append(all, ds...)
		}
	}
	sortDiagnostics(all)
	return all, nil
}
