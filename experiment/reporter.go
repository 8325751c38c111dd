package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
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

var (
	repMu      sync.RWMutex
	repEntries = make(map[string]repEntry) // keyed by lower-cased name
)

type repEntry struct {
	display string
	factory ReporterFactory
}

// RegisterReporter adds a reporter to the open registry under the given
// case-insensitive name, making it selectable everywhere a reporter name
// is accepted (NewReporter, cmd/optchain-bench -reporter). Registering a
// duplicate or empty name, or a nil factory, returns an error — the same
// rules as optchain.RegisterStrategy.
func RegisterReporter(name string, f ReporterFactory) error {
	name = strings.TrimSpace(name)
	if name == "" {
		return fmt.Errorf("%w: empty reporter name", ErrBadRegistration)
	}
	if f == nil {
		return fmt.Errorf("%w: nil reporter factory for %q", ErrBadRegistration, name)
	}
	key := strings.ToLower(name)
	repMu.Lock()
	defer repMu.Unlock()
	if prev, ok := repEntries[key]; ok {
		return fmt.Errorf("%w: reporter %q already registered", ErrBadRegistration, prev.display)
	}
	repEntries[key] = repEntry{display: name, factory: f}
	return nil
}

// mustRegisterReporter registers a built-in; failure is a programming error.
func mustRegisterReporter(name string, f ReporterFactory) {
	if err := RegisterReporter(name, f); err != nil {
		panic(err)
	}
}

// Reporters enumerates the registered reporter names, sorted.
func Reporters() []string {
	repMu.RLock()
	defer repMu.RUnlock()
	out := make([]string, 0, len(repEntries))
	for _, e := range repEntries {
		out = append(out, e.display)
	}
	sort.Strings(out)
	return out
}

// HasReporter reports whether name resolves to a registered reporter.
func HasReporter(name string) bool {
	repMu.RLock()
	defer repMu.RUnlock()
	_, ok := repEntries[strings.ToLower(strings.TrimSpace(name))]
	return ok
}

// NewReporter builds the reporter registered under name writing to w.
// Unknown names fail with ErrUnknownReporter listing the registry.
func NewReporter(name string, w io.Writer) (Reporter, error) {
	repMu.RLock()
	e, ok := repEntries[strings.ToLower(strings.TrimSpace(name))]
	repMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)",
			ErrUnknownReporter, name, strings.Join(Reporters(), ", "))
	}
	return e.factory(w), nil
}
