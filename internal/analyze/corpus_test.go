package analyze

import (
	"path/filepath"
	"regexp"
	"testing"
)

// The corpora follow the x/tools analysistest convention: a `// want "re"`
// comment on a line asserts that the analyzer reports a diagnostic on that
// line matching the regexp; every reported diagnostic must be matched by a
// want, and every want must be matched by a diagnostic.

var (
	wantRe  = regexp.MustCompile(`//\s*want\s+(.*)`)
	quoteRe = regexp.MustCompile(`"([^"]*)"`)
)

type wantKey struct {
	file string
	line int
}

// corpusWants indexes the want expectations of a corpus package by
// (file, line).
func corpusWants(pkg *Package) map[wantKey][]string {
	wants := make(map[wantKey][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := wantKey{filepath.Base(pos.Filename), pos.Line}
				for _, q := range quoteRe.FindAllStringSubmatch(m[1], -1) {
					wants[key] = append(wants[key], q[1])
				}
			}
		}
	}
	return wants
}

// runCorpus loads testdata/<dir>, runs one analyzer over it, and reconciles
// diagnostics against the want comments.
func runCorpus(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkg, err := LoadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("loading corpus %s: %v", dir, err)
	}
	diags, err := RunAnalyzer(a, pkg)
	if err != nil {
		t.Fatalf("running %s on corpus %s: %v", a.Name, dir, err)
	}
	wants := corpusWants(pkg)
	for _, d := range diags {
		key := wantKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		patterns := wants[key]
		matched := false
		for i, p := range patterns {
			if p == "" {
				continue
			}
			re, err := regexp.Compile(p)
			if err != nil {
				t.Fatalf("%s:%d: bad want pattern %q: %v", key.file, key.line, p, err)
			}
			if re.MatchString(d.Message) {
				patterns[i] = "" // consumed
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, patterns := range wants {
		for _, p := range patterns {
			if p != "" {
				t.Errorf("%s:%d: want diagnostic matching %q, got none", key.file, key.line, p)
			}
		}
	}
}

func TestHotpathCorpus(t *testing.T)    { runCorpus(t, Hotpath, "hotpath") }
func TestLockcheckCorpus(t *testing.T)  { runCorpus(t, Lockcheck, "lockcheck") }
func TestSpawncheckCorpus(t *testing.T) { runCorpus(t, Spawncheck, "spawncheck") }
