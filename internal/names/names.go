// Package names is the one name table behind every registry in the module:
// placement strategies and commit protocols (internal/registry), workload
// scenarios (internal/workload), and the experiment layer's reporters and
// sweeps. A Table maps a name to a value under the same rules everywhere:
//
//   - names are trimmed and matched case-insensitively, and Get returns the
//     spelling the name was registered under;
//   - a name is non-empty and drawn from [A-Za-z0-9._-]. The workload spec
//     grammar, the -strategies list and cell IDs use the other characters
//     as separators, so a name outside the set could be registered but
//     never resolved;
//   - a name is registered once, with a non-nil value.
//
// Every registration failure wraps ErrBadRegistration; every unknown name
// wraps the table's own sentinel and lists the registered set. The package
// is a leaf: it imports nothing from this module, so any package may hold a
// Table.
package names

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// ErrBadRegistration reports a registration a Table refuses: an empty name,
// a character outside [A-Za-z0-9._-], a nil value, or a name already taken
// under any casing.
var ErrBadRegistration = errors.New("invalid registration")

// Table is a name-indexed registry, safe for concurrent use.
type Table[F any] struct {
	unknown error
	mu      sync.RWMutex
	entries map[string]entry[F] // keyed by lower-cased name
}

type entry[F any] struct {
	name  string
	value F
}

// New returns an empty table whose unknown-name errors wrap unknown.
func New[F any](unknown error) *Table[F] {
	return &Table[F]{unknown: unknown, entries: make(map[string]entry[F])}
}

// Register adds value under name.
func (t *Table[F]) Register(name string, value F) error {
	name = strings.TrimSpace(name)
	if name == "" {
		return fmt.Errorf("%w: empty name", ErrBadRegistration)
	}
	if i := strings.IndexFunc(name, func(r rune) bool { return !nameRune(r) }); i >= 0 {
		return fmt.Errorf("%w: name %q has %q, outside [A-Za-z0-9._-]", ErrBadRegistration, name, name[i:i+1])
	}
	if isNil(value) {
		return fmt.Errorf("%w: nil value for %q", ErrBadRegistration, name)
	}
	key := strings.ToLower(name)
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.entries[key]; ok {
		return fmt.Errorf("%w: %q already registered", ErrBadRegistration, prev.name)
	}
	t.entries[key] = entry[F]{name: name, value: value}
	return nil
}

// Must registers a built-in; a failure is a programming error caught at
// init, so it panics.
func (t *Table[F]) Must(name string, value F) {
	if err := t.Register(name, value); err != nil {
		panic(err)
	}
}

// Get resolves name to its value and registered spelling. An unknown name
// fails with an error wrapping the table's sentinel that lists the
// registered set.
func (t *Table[F]) Get(name string) (F, string, error) {
	t.mu.RLock()
	e, ok := t.entries[strings.ToLower(strings.TrimSpace(name))]
	t.mu.RUnlock()
	if !ok {
		var zero F
		return zero, "", fmt.Errorf("%w %q (registered: %s)", t.unknown, name, strings.Join(t.Names(), ", "))
	}
	return e.value, e.name, nil
}

// Names returns the registered spellings, sorted.
func (t *Table[F]) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]string, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, e.name)
	}
	sort.Strings(out)
	return out
}

func nameRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '.' || r == '_' || r == '-'
}

// isNil reports whether v is a nil func, pointer, map, slice, channel or
// interface.
func isNil(v any) bool {
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Invalid:
		return true
	case reflect.Func, reflect.Pointer, reflect.Map, reflect.Slice, reflect.Chan, reflect.Interface:
		return rv.IsNil()
	}
	return false
}
