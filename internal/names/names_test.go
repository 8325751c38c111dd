package names

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

var errUnknown = errors.New("unknown thing")

func newTable(t *testing.T) *Table[func() int] {
	t.Helper()
	tab := New[func() int](errUnknown)
	tab.Must("OptChain", func() int { return 1 })
	tab.Must("omniledger", func() int { return 2 })
	return tab
}

func TestRegisterRefuses(t *testing.T) {
	tab := newTable(t)
	one := func() int { return 3 }
	for _, c := range []struct {
		what string
		name string
		f    func() int
	}{
		{"empty name", "", one},
		{"blank name", "   ", one},
		{"nil func", "fresh", nil},
		{"duplicate under another casing", "OPTCHAIN", one},
		{"duplicate, padded", " OmniLedger ", one},
		{"spec separator", "team:a", one},
		{"list separator", "a,b", one},
		{"inner space", "a b", one},
		{"paren", "(x)", one},
		{"non-ASCII letter", "réseau", one},
	} {
		if err := tab.Register(c.name, c.f); !errors.Is(err, ErrBadRegistration) {
			t.Errorf("%s: Register(%q) = %v, want ErrBadRegistration", c.what, c.name, err)
		}
	}
	if got, want := tab.Names(), []string{"OptChain", "omniledger"}; !slices.Equal(got, want) {
		t.Errorf("Names() = %v after refused registrations, want %v", got, want)
	}
	if err := tab.Register(" v1.2_x-y ", one); err != nil {
		t.Errorf("Register of a name drawn from [A-Za-z0-9._-]: %v", err)
	}
	// Only a nil func, pointer, map, slice, channel or interface is nil: a
	// zero struct is a value.
	if err := New[any](errUnknown).Register("x", nil); !errors.Is(err, ErrBadRegistration) {
		t.Errorf("nil interface value: %v, want ErrBadRegistration", err)
	}
	if err := New[struct{ n int }](errUnknown).Register("x", struct{ n int }{}); err != nil {
		t.Errorf("zero struct value: %v", err)
	}
}

func TestGet(t *testing.T) {
	tab := newTable(t)
	for _, spelled := range []string{"OptChain", "optchain", " OPTCHAIN "} {
		f, name, err := tab.Get(spelled)
		if err != nil || name != "OptChain" || f() != 1 {
			t.Errorf("Get(%q) = (f, %q, %v), want the registered spelling OptChain", spelled, name, err)
		}
	}
	_, name, err := tab.Get("nope")
	if !errors.Is(err, errUnknown) || name != "" {
		t.Fatalf("Get(nope) = (%q, %v), want the table's sentinel", name, err)
	}
	for _, want := range []string{`"nope"`, "OptChain", "omniledger"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-name error %q does not name %s", err, want)
		}
	}
}

func TestMustPanicsOnRefusal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Must accepted a duplicate")
		}
	}()
	newTable(t).Must("OPTCHAIN", func() int { return 0 })
}
