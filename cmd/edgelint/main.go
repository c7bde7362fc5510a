// Command edgelint is the repo's custom static analyzer: a stdlib-only
// (go/ast + go/types, no external dependencies) suite of registered
// analyzers running over a shared type-checked inspector, enforcing
// invariants gofmt and go vet cannot see because they are specific to
// this codebase. Findings print as "file:line: rule: message" (or JSON
// with -json) and any finding exits nonzero, so `make lint` gates CI.
//
// The rule registry (analysis.go holds the framework, rules.go the
// structural rules, concurrency.go the concurrency family):
//
//	float-eq        no ==/!= on float32/float64 expressions outside
//	                *_test.go — latency and FLOP accounting are floats,
//	                and exact comparison is how calibration drift sneaks
//	                in (constant-zero comparison is exempt)
//	nodes-mut       no direct graph.Graph.Nodes mutation outside
//	                internal/graph — everyone else goes through
//	                Graph.Add/Append so IDs, ordering, and freeze
//	                discipline stay intact
//	pool-alloc      no direct tensor.New inside internal/graph; eval
//	                paths allocate through the pool-aware allocator
//	panic-in-err    a function that returns error must not call panic —
//	                it promised its caller a recoverable failure path
//	handler-ctx     an HTTP handler that reads the request must consult
//	                r.Context() (or delegate r onward)
//	fake-quant      no Quantize*(x).Dequantize() call chains outside
//	                *_test.go — the round-trip discards the int8 codes
//	exported-doc    exported declarations in the IR-critical and serving
//	                packages must carry doc comments
//	atomic-mixed    no plain access to a variable elsewhere accessed via
//	                sync/atomic free functions — that mix is a data race
//	mutex-infer     no Infer/Run or tensor kernel calls while holding a
//	                mutex; a forward pass under a lock serializes every
//	                request goroutine
//	go-lifetime     goroutines in internal/server, internal/serving, and
//	                internal/tensor (the persistent kernel worker pool)
//	                need lifecycle plumbing (ctx, done channel, or
//	                WaitGroup) so shutdown can cancel or await them
//	wg-add          WaitGroup.Add goes before the go statement, never
//	                inside the spawned goroutine
//	unchecked-error no statement-position call may silently drop an
//	                error result (fmt print family and never-failing
//	                writers exempt; assign to _ to show intent)
//	into-alias      tensor *Into kernels must not receive a dst that
//	                provably aliases a source argument
//	unused-export   an exported internal/graph or internal/tensor
//	                identifier needs a non-test reference outside its
//	                own file, or an "edgelint:seam <reason>" line in its
//	                doc comment
//
// A finding can be suppressed with a trailing or preceding
// "// edgelint:ignore <rule>" comment; use sparingly and say why.
//
// Usage:
//
//	go run ./cmd/edgelint ./...
//	go run ./cmd/edgelint -json ./internal/graph
//	go run ./cmd/edgelint -disable exported-doc ./...
//	go run ./cmd/edgelint -enable atomic-mixed,mutex-infer ./...
//	go run ./cmd/edgelint -rules
//
// The analyzer always loads the whole module (a package cannot be
// type-checked without its dependencies) and reports findings only for
// the requested patterns.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array instead of text")
		enable  = flag.String("enable", "", "comma-separated rules to run (default: all)")
		disable = flag.String("disable", "", "comma-separated rules to skip")
		list    = flag.Bool("rules", false, "list registered rules and exit")
	)
	flag.Parse()
	if *list {
		for _, name := range analyzerNames() {
			for _, a := range analyzers {
				if a.Name == name {
					fmt.Printf("%-15s %s\n", a.Name, a.Doc)
				}
			}
		}
		return
	}
	enabled, err := ruleSet(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgelint:", err)
		os.Exit(2)
	}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	root, module, err := findModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgelint:", err)
		os.Exit(2)
	}
	pkgs, err := loadModule(root, module)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgelint:", err)
		os.Exit(2)
	}
	var findings []finding
	for _, p := range pkgs {
		if !selected(p.dir, root, args) {
			continue
		}
		findings = append(findings, lintPackageRules(p, enabled)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	if *jsonOut {
		data, err := renderJSON(findings, root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "edgelint:", err)
			os.Exit(2)
		}
		fmt.Println(string(data))
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d: %s: %s\n", relPath(root, f.pos.Filename), f.pos.Line, f.rule, f.msg)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// relPath shortens an absolute finding path to be module-root relative
// when possible.
func relPath(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// jsonFinding is the machine-readable finding shape the -json flag
// emits; the field set is the stable contract CI tooling parses.
type jsonFinding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

// renderJSON marshals findings (root-relative paths, indented, and an
// empty array rather than null for zero findings) for -json output.
func renderJSON(findings []finding, root string) ([]byte, error) {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File: relPath(root, f.pos.Filename),
			Line: f.pos.Line,
			Col:  f.pos.Column,
			Rule: f.rule,
			Msg:  f.msg,
		})
	}
	return json.MarshalIndent(out, "", "  ")
}

// findModule walks upward from dir to the enclosing go.mod and returns
// the module root and module path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return abs, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", abs)
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// selected reports whether a package directory matches any of the
// requested patterns ("./...", "./internal/graph", "internal/graph").
func selected(dir, root string, patterns []string) bool {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return false
	}
	rel = filepath.ToSlash(rel)
	for _, pat := range patterns {
		pat = strings.TrimPrefix(filepath.ToSlash(pat), "./")
		if pat != "..." && !strings.HasSuffix(pat, "/...") {
			pat = strings.TrimSuffix(pat, "/")
		}
		switch {
		case pat == "...":
			return true
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			if rel == base || strings.HasPrefix(rel, base+"/") {
				return true
			}
		case rel == pat:
			return true
		}
	}
	return false
}

// pkg is one parsed and type-checked module package.
type pkg struct {
	path  string // import path
	dir   string
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info

	// module holds every package loaded with this one, itself included,
	// by import path: what the cross-package rules (unused-export) read.
	module map[string]*pkg
}

// loadModule parses and type-checks every non-test package under root in
// dependency order. Module-internal imports resolve against the packages
// checked so far; the standard library is type-checked from GOROOT
// source (the gc importer has no export data for it since Go 1.20).
func loadModule(root, module string) ([]*pkg, error) {
	fset := token.NewFileSet()
	byPath := map[string]*pkg{}
	var order []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		p, err := parseDir(fset, path, root, module)
		if err != nil {
			return err
		}
		if p != nil {
			byPath[p.path] = p
			order = append(order, p.path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	sorted, err := topoSort(byPath, order, module)
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{
		module: byPath,
		std:    importer.ForCompiler(fset, "source", nil),
	}
	for _, p := range sorted {
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(p.path, fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", p.path, err)
		}
		p.types = tpkg
		p.module = byPath
	}
	return sorted, nil
}

// parseDir parses the non-test Go files of one directory that build for
// the host (GOOS / GOARCH file suffixes and //go:build lines); nil when
// the directory holds no Go package.
func parseDir(fset *token.FileSet, dir, root, module string) (*pkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &pkg{dir: dir, fset: fset, info: newInfo()}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		p.path = module
	} else {
		p.path = module + "/" + filepath.ToSlash(rel)
	}
	return p, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// imports returns the package's module-internal import paths.
func (p *pkg) imports(module string) []string {
	var out []string
	for _, f := range p.files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if path == module || strings.HasPrefix(path, module+"/") {
				out = append(out, path)
			}
		}
	}
	return out
}

// topoSort orders packages so every module-internal dependency precedes
// its importers.
func topoSort(byPath map[string]*pkg, order []string, module string) ([]*pkg, error) {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := map[string]int{}
	var out []*pkg
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case visiting:
			return fmt.Errorf("import cycle through %s", path)
		case done:
			return nil
		}
		state[path] = visiting
		p := byPath[path]
		for _, dep := range p.imports(module) {
			if _, ok := byPath[dep]; !ok {
				return fmt.Errorf("%s imports %s, which has no source in the module", path, dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = done
		out = append(out, p)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// moduleImporter resolves module-internal imports against the packages
// type-checked so far and everything else (the standard library) against
// GOROOT source.
type moduleImporter struct {
	module map[string]*pkg
	std    types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import %s before it was type-checked (loader ordering bug)", path)
		}
		return p.types, nil
	}
	return m.std.Import(path)
}
