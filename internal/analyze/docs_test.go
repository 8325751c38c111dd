package analyze

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestAnalyzerDocs keeps PERFORMANCE.md's "Static analysis & contracts"
// section honest: every analyzer in the suite and every annotation verb in
// the grammar must be documented there. Adding an analyzer or a verb
// without documenting it fails this test, not a reviewer's memory.
func TestAnalyzerDocs(t *testing.T) {
	raw, err := os.ReadFile("../../PERFORMANCE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	for _, a := range All() {
		if !strings.Contains(doc, "`"+a.Name+"`") {
			t.Errorf("analyzer %q is not documented in PERFORMANCE.md", a.Name)
		}
	}
	for _, v := range verbs() {
		marker := fmt.Sprintf("//optchain:%s", v)
		if !strings.Contains(doc, marker) {
			t.Errorf("annotation %s is not documented in PERFORMANCE.md", marker)
		}
	}
	if !strings.Contains(doc, "guarded by") {
		t.Error("the `// guarded by <mu>` grammar is not documented in PERFORMANCE.md")
	}
}
