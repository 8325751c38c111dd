package experiment

import (
	"fmt"

	"optchain/internal/names"
)

// SweepBuilder materializes a named sweep definition against the
// parameters it will run under (grids shrink under Params.Quick, strategy
// axes default from Params.Strategies, and so on).
type SweepBuilder func(p Params) (Sweep, error)

type sweepDef struct {
	description string
	build       SweepBuilder
}

var sweeps = names.New[sweepDef](ErrUnknownSweep)

// RegisterSweep adds a named sweep definition to the open registry, making
// it selectable from cmd/optchain-bench -sweep (and enumerable with
// -list-sweeps). internal/bench registers the paper's grids; externally
// defined sweeps register here exactly like built-ins. The naming rules are
// those of every registry (see names.Table); a refused registration, a nil
// builder included, wraps ErrBadRegistration.
func RegisterSweep(name, description string, build SweepBuilder) error {
	if build == nil {
		return fmt.Errorf("%w: nil sweep builder for %q", ErrBadRegistration, name)
	}
	return sweeps.Register(name, sweepDef{description, build})
}

// MustRegisterSweep registers a built-in; failure is a programming error.
func MustRegisterSweep(name, description string, build SweepBuilder) {
	if err := RegisterSweep(name, description, build); err != nil {
		panic(err) // duplicate built-in registration is a programmer error caught at init
	}
}

// SweepNames enumerates the registered sweep names, sorted.
func SweepNames() []string { return sweeps.Names() }

// SweepDescription returns the registered one-line description for name
// ("" when unknown).
func SweepDescription(name string) string {
	d, _, _ := sweeps.Get(name)
	return d.description
}

// BuildSweep materializes the named sweep against p. Unknown names fail
// with ErrUnknownSweep listing the registry.
func BuildSweep(name string, p Params) (Sweep, error) {
	d, _, err := sweeps.Get(name)
	if err != nil {
		return Sweep{}, err
	}
	p.fillDefaults()
	return d.build(p)
}
