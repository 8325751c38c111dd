// Command covercheck enforces per-package statement-coverage floors over a
// merged `go test -coverprofile` file: `make cover` produces cover.out
// across the module and this checker fails the build when any package
// drops below its committed floor in COVERAGE_floors.txt. It is a command
// rather than a test because a test cannot check its own run's coverage.
//
// Usage:
//
//	covercheck -profile cover.out -floors COVERAGE_floors.txt
//
// The floors file holds one `import/path  percent` pair per line (#
// comments and blank lines ignored). The check is two-sided so the file
// cannot rot: a profiled package without a floor fails (new tested code
// must commit a floor), and a floor whose package no longer appears in the
// profile fails (stale floors must be deleted). Floors are a ratchet
// against regression, not a target — raise them as coverage grows.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// pkgCover accumulates statement counts for one package.
type pkgCover struct {
	total   int
	covered int
}

func (p pkgCover) percent() float64 {
	if p.total == 0 {
		return 0
	}
	return 100 * float64(p.covered) / float64(p.total)
}

// parseProfile aggregates a go cover profile into per-package statement
// coverage. Blocks repeated across merged runs are deduplicated by
// position, keeping the maximum hit count (a block covered in any run
// counts as covered).
func parseProfile(path_ string) (map[string]pkgCover, error) {
	f, err := os.Open(path_)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	type block struct {
		stmts int
		hit   bool
	}
	blocks := map[string]block{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "mode:") {
			continue
		}
		// file.go:sl.sc,el.ec numStmts count
		pos, rest, ok := strings.Cut(text, " ")
		if !ok {
			return nil, fmt.Errorf("%s:%d: malformed profile line %q", path_, line, text)
		}
		stmtStr, countStr, ok := strings.Cut(rest, " ")
		if !ok {
			return nil, fmt.Errorf("%s:%d: malformed profile line %q", path_, line, text)
		}
		stmts, err := strconv.Atoi(stmtStr)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad statement count: %v", path_, line, err)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad hit count: %v", path_, line, err)
		}
		b := blocks[pos]
		b.stmts = stmts
		b.hit = b.hit || count > 0
		blocks[pos] = b
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	pkgs := map[string]pkgCover{}
	for pos, b := range blocks {
		file, _, ok := strings.Cut(pos, ":")
		if !ok {
			return nil, fmt.Errorf("%s: block position %q has no file", path_, pos)
		}
		pkg := path.Dir(file)
		pc := pkgs[pkg]
		pc.total += b.stmts
		if b.hit {
			pc.covered += b.stmts
		}
		pkgs[pkg] = pc
	}
	return pkgs, nil
}

// parseFloors reads the committed floors file: `import/path percent` pairs.
func parseFloors(path_ string) (map[string]float64, error) {
	f, err := os.Open(path_)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	floors := map[string]float64{}
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want `package percent`, got %q", path_, line, text)
		}
		pct, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || pct < 0 || pct > 100 {
			return nil, fmt.Errorf("%s:%d: bad percent %q", path_, line, fields[1])
		}
		if _, dup := floors[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate floor for %s", path_, line, fields[0])
		}
		floors[fields[0]] = pct
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return floors, nil
}

func main() {
	profile := flag.String("profile", "cover.out", "merged go test -coverprofile output")
	floorsPath := flag.String("floors", "COVERAGE_floors.txt", "per-package coverage floors file")
	flag.Parse()

	pkgs, err := parseProfile(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "covercheck: %v\n", err)
		os.Exit(1)
	}
	floors, err := parseFloors(*floorsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "covercheck: %v\n", err)
		os.Exit(1)
	}

	names := make([]string, 0, len(pkgs))
	for pkg := range pkgs {
		names = append(names, pkg)
	}
	sort.Strings(names)

	bad := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "covercheck: %s\n", fmt.Sprintf(format, args...))
		bad++
	}
	for _, pkg := range names {
		got := pkgs[pkg].percent()
		floor, ok := floors[pkg]
		if !ok {
			fail("%s: %.1f%% covered but no floor committed in %s", pkg, got, *floorsPath)
			continue
		}
		if got < floor {
			fail("%s: coverage %.1f%% below floor %.1f%%", pkg, got, floor)
			continue
		}
		fmt.Printf("covercheck: %s: %.1f%% (floor %.1f%%)\n", pkg, got, floor)
	}
	floorNames := make([]string, 0, len(floors))
	for pkg := range floors {
		floorNames = append(floorNames, pkg)
	}
	sort.Strings(floorNames)
	for _, pkg := range floorNames {
		if _, ok := pkgs[pkg]; !ok {
			fail("%s: floor %.1f%% committed but package absent from %s (stale floor?)", pkg, floors[pkg], *profile)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "covercheck: %d problem(s)\n", bad)
		os.Exit(1)
	}
	fmt.Printf("covercheck: %d package(s) at or above their floors\n", len(names))
}
