package optchain_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// linkRe matches inline markdown links and images: [text](target). Targets
// with spaces or titles ("...") are out of scope — the repository's docs
// use plain paths.
var linkRe = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)\)`)

// Every relative link in the top-level documents names a file or directory
// that exists. External links are skipped (the tests stay network-free),
// and a fragment is stripped, so only its file is checked.
func TestDocLinks(t *testing.T) {
	for _, file := range []string{"README.md", "SCENARIOS.md", "PERFORMANCE.md"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue // a fragment within the same file
			}
			if _, err := os.Stat(filepath.Join(filepath.Dir(file), target)); err != nil {
				t.Errorf("%s: broken link %q", file, m[1])
			}
		}
	}
}
