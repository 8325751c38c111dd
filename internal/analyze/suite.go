package analyze

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Hotpath,
		Lockcheck,
		Spawncheck,
	}
}

// Check loads the packages matching patterns (resolved relative to dir) and
// runs every analyzer over each, returning all findings in stable order.
// This is the single entry point behind both cmd/optchain-lint and the
// self-lint test. Every analyzer fires only on annotated or structurally
// implicated code, and spawncheck exempts package main itself, so no
// package needs routing.
func Check(dir string, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range All() {
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
