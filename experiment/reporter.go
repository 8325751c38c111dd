package experiment

import (
	"io"

	"optchain/internal/names"
)

// Reporter is a sweep result sink. The Runner drives it through Report:
// Begin once, Row per result in canonical order as cells complete, End
// once — including after a failure or cancellation, so partial output is
// flushed rather than lost.
//
// Implementations need not be safe for concurrent use; the Runner
// serializes calls.
type Reporter interface {
	// Begin observes the sweep definition before any row.
	Begin(s Sweep, p Params) error
	// Row observes one completed result row.
	Row(r Row) error
	// End flushes. It is called exactly once, even on failure paths.
	End() error
}

// ReporterFactory builds a reporter writing to w.
type ReporterFactory func(w io.Writer) Reporter

var reporters = names.New[ReporterFactory](ErrUnknownReporter)

// RegisterReporter adds a reporter to the open registry under the given
// name, making it selectable everywhere a reporter name is accepted
// (NewReporter, cmd/optchain-bench -reporter). The naming rules are those of
// every registry (see names.Table); a refused registration wraps
// ErrBadRegistration.
func RegisterReporter(name string, f ReporterFactory) error {
	return reporters.Register(name, f)
}

// Reporters enumerates the registered reporter names, sorted.
func Reporters() []string { return reporters.Names() }

// NewReporter builds the reporter registered under name writing to w.
// Unknown names fail with ErrUnknownReporter listing the registry.
func NewReporter(name string, w io.Writer) (Reporter, error) {
	f, _, err := reporters.Get(name)
	if err != nil {
		return nil, err
	}
	return f(w), nil
}
