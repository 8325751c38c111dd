package analyze

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	Ann        *Annotations
}

// listedPackage is the subset of `go list -json` output the loader consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
}

// goList resolves package patterns through the go tool. It runs in dir
// (the caller's working directory when empty), so both relative ("./...")
// and import-path ("optchain/...") patterns work.
func goList(dir string, patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var out []listedPackage
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list -json decode: %w", err)
		}
		out = append(out, p)
	}
	return out, nil
}

// Load resolves patterns with `go list`, parses every matched package's
// non-test Go files, and type-checks them in dependency order. In-module
// imports are resolved against the loaded set; standard-library imports go
// through the source importer, so the loader needs nothing beyond GOROOT.
// Test files are excluded by design: the contracts the analyzers enforce
// (reproducible decisions, zero-alloc hot paths) are production-code
// contracts.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	requested, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	if len(requested) == 0 {
		return nil, fmt.Errorf("analyze: no packages match %s", strings.Join(patterns, " "))
	}
	modPath := ""
	if requested[0].Module != nil {
		modPath = requested[0].Module.Path
	}
	inModule := func(path string) bool {
		return modPath != "" && (path == modPath || strings.HasPrefix(path, modPath+"/"))
	}

	// Close the in-module dependency set: a lint of one package still needs
	// its module-internal imports type-checked first.
	metas := make(map[string]listedPackage)
	var order []string
	for _, p := range requested {
		if _, ok := metas[p.ImportPath]; !ok {
			metas[p.ImportPath] = p
			order = append(order, p.ImportPath)
		}
	}
	for queue := append([]listedPackage(nil), requested...); len(queue) > 0; {
		var missing []string
		for _, p := range queue {
			for _, imp := range p.Imports {
				if inModule(imp) {
					if _, ok := metas[imp]; !ok {
						missing = append(missing, imp)
					}
				}
			}
		}
		queue = nil
		if len(missing) == 0 {
			break
		}
		sort.Strings(missing)
		missing = dedupeStrings(missing)
		deps, err := goList(dir, missing...)
		if err != nil {
			return nil, err
		}
		for _, p := range deps {
			if _, ok := metas[p.ImportPath]; !ok {
				metas[p.ImportPath] = p
				order = append(order, p.ImportPath)
				queue = append(queue, p)
			}
		}
	}

	topo, err := topoSort(metas, inModule)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	loaded := make(map[string]*Package, len(topo))
	imp := &moduleImporter{std: std, mod: loaded}
	for _, path := range topo {
		pkg, err := typeCheck(fset, metas[path], imp)
		if err != nil {
			return nil, err
		}
		loaded[path] = pkg
	}

	out := make([]*Package, 0, len(requested))
	seen := make(map[string]bool, len(requested))
	for _, p := range requested {
		if !seen[p.ImportPath] {
			seen[p.ImportPath] = true
			out = append(out, loaded[p.ImportPath])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

func dedupeStrings(xs []string) []string {
	w := 0
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			xs[w] = x
			w++
		}
	}
	return xs[:w]
}

// topoSort orders the in-module packages so every package follows its
// imports.
func topoSort(metas map[string]listedPackage, inModule func(string) bool) ([]string, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int, len(metas))
	var order []string
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analyze: import cycle through %s", path)
		}
		state[path] = visiting
		p := metas[path]
		deps := append([]string(nil), p.Imports...)
		sort.Strings(deps)
		for _, imp := range deps {
			if inModule(imp) {
				if _, ok := metas[imp]; ok {
					if err := visit(imp); err != nil {
						return err
					}
				}
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	paths := make([]string, 0, len(metas))
	for path := range metas {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves in-module imports from the already-checked set and
// defers everything else (the standard library) to the source importer.
type moduleImporter struct {
	std types.Importer
	mod map[string]*Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.mod[path]; ok {
		return p.Types, nil
	}
	return m.std.Import(path)
}

// typeCheck parses and checks one package.
func typeCheck(fset *token.FileSet, meta listedPackage, imp types.Importer) (*Package, error) {
	files := make([]*ast.File, 0, len(meta.GoFiles))
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	cfg := &types.Config{Importer: imp}
	tpkg, err := cfg.Check(meta.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyze: type-checking %s: %w", meta.ImportPath, err)
	}
	return &Package{
		ImportPath: meta.ImportPath,
		Dir:        meta.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Ann:        NewAnnotations(fset, files),
	}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// loadDir parses and type-checks a single directory of Go files as one
// package outside any module — the analysistest corpus loader. Corpus files
// may import only the standard library.
func loadDir(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analyze: no Go files in %s", dir)
	}
	info := newInfo()
	cfg := &types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	name := files[0].Name.Name
	tpkg, err := cfg.Check(name, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyze: type-checking %s: %w", dir, err)
	}
	return &Package{
		ImportPath: name,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
		Ann:        NewAnnotations(fset, files),
	}, nil
}
