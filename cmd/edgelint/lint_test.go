package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// env is a fabricated module for rule tests: packages type-check against
// each other through the same moduleImporter the CLI uses.
type env struct {
	t    *testing.T
	fset *token.FileSet
	imp  *moduleImporter
}

func newEnv(t *testing.T) *env {
	t.Helper()
	fset := token.NewFileSet()
	return &env{
		t:    t,
		fset: fset,
		imp: &moduleImporter{
			module: map[string]*pkg{},
			std:    importer.ForCompiler(fset, "source", nil),
		},
	}
}

// add parses and type-checks one single-file package under the given
// import path and registers it for later packages to import.
func (e *env) add(path, src string) *pkg {
	e.t.Helper()
	fname := strings.ReplaceAll(path, "/", "_") + ".go"
	f, err := parser.ParseFile(e.fset, fname, src, parser.ParseComments)
	if err != nil {
		e.t.Fatalf("parse %s: %v", path, err)
	}
	p := &pkg{path: path, fset: e.fset, files: []*ast.File{f}, info: newInfo(), module: e.imp.module}
	conf := types.Config{Importer: e.imp}
	tpkg, err := conf.Check(path, e.fset, p.files, p.info)
	if err != nil {
		e.t.Fatalf("type-check %s: %v", path, err)
	}
	p.types = tpkg
	e.imp.module[path] = p
	return p
}

// fakeGraph is a stand-in for edgebench/internal/graph with just enough
// surface for the nodes-mut rule to resolve types against.
const fakeGraph = `package graph

// Node is a fake.
type Node struct{}

// Graph is a fake.
type Graph struct {
	Nodes []*Node
}

// Append is a fake.
func (g *Graph) Append(n *Node) { g.Nodes = append(g.Nodes, n) }
`

func rules(fs []finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.rule)
	}
	return out
}

func wantRules(t *testing.T, fs []finding, want ...string) {
	t.Helper()
	got := rules(fs)
	if len(got) != len(want) {
		t.Fatalf("got findings %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("finding %d = %v, want %v (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestFloatEq(t *testing.T) {
	e := newEnv(t)
	p := e.add("example.com/m/floats", `package floats

func cmp(a, b float64) bool { return a == b }

func cmpNE(a float32, b float64) bool { return float64(a) != b }

func zeroGuard(a float64) bool { return a == 0 }

func zeroGuardRev(a float64) bool { return 0.0 != a }

func ints(a, b int) bool { return a == b }

func strs(a, b string) bool { return a == b }
`)
	wantRules(t, lintPackage(p), "float-eq", "float-eq")
}

func TestNodesMut(t *testing.T) {
	e := newEnv(t)
	e.add(graphPkg, fakeGraph)
	p := e.add("example.com/m/user", `package user

import "edgebench/internal/graph"

type other struct{ Nodes []int }

func appendMut(g *graph.Graph, n *graph.Node) { g.Nodes = append(g.Nodes, n) }

func indexMut(g graph.Graph, n *graph.Node) { g.Nodes[0] = n }

func sliceMut(g *graph.Graph) { g.Nodes = g.Nodes[:0] }

func notGraph(o *other) { o.Nodes = append(o.Nodes, 1) }

func readOnly(g *graph.Graph) int { return len(g.Nodes) }
`)
	wantRules(t, lintPackage(p), "nodes-mut", "nodes-mut", "nodes-mut")
}

func TestNodesMutAllowedInsideGraph(t *testing.T) {
	e := newEnv(t)
	p := e.add(graphPkg, fakeGraph)
	for _, f := range lintPackage(p) {
		if f.rule == "nodes-mut" {
			t.Fatalf("nodes-mut reported inside %s: %v", graphPkg, f.msg)
		}
	}
}

// fakeTensor is a stand-in for edgebench/internal/tensor with just the
// allocator surface the pool-alloc rule resolves against.
const fakeTensor = `package tensor

// Tensor is a fake.
type Tensor struct{}

// New is a fake.
func New(shape ...int) *Tensor { return &Tensor{} }
`

func TestPoolAlloc(t *testing.T) {
	e := newEnv(t)
	e.add(tensorPkg, fakeTensor)
	p := e.add(graphPkg, `package graph

import "edgebench/internal/tensor"

func alloc() *tensor.Tensor { return tensor.New(1, 2) }

func allowed() *tensor.Tensor {
	return tensor.New(3) // edgelint:ignore pool-alloc
}

type local struct{}

func (local) New(shape ...int) *tensor.Tensor { return nil }

func notTensorNew(l local) *tensor.Tensor { return l.New(5) }
`)
	wantRules(t, lintPackage(p), "pool-alloc")
}

func TestPoolAllocOutsideGraph(t *testing.T) {
	e := newEnv(t)
	e.add(tensorPkg, fakeTensor)
	p := e.add("example.com/m/user", `package user

import "edgebench/internal/tensor"

func alloc() *tensor.Tensor { return tensor.New(4) }
`)
	for _, f := range lintPackage(p) {
		if f.rule == "pool-alloc" {
			t.Fatalf("pool-alloc reported outside %s: %s", graphPkg, f.msg)
		}
	}
}

// fakeGraphPasses is a stand-in for edgebench/internal/graph with just
// the pass surface the pass-verify rule resolves against.
const fakeGraphPasses = `package graph

// Graph is a fake.
type Graph struct{}

// FoldBN is a fake.
func FoldBN(g *Graph) {}

// FusePatterns is a fake.
func FusePatterns(g *Graph) int { return 0 }

// Prune is a fake.
func Prune(fraction float64) func(*Graph) { return nil }

// Validate is a fake (not a pass; must not be flagged).
func Validate(g *Graph) {}
`

func TestPassVerify(t *testing.T) {
	e := newEnv(t)
	e.add(graphPkg, fakeGraphPasses)
	p := e.add("example.com/m/user", `package user

import "edgebench/internal/graph"

func lower(g *graph.Graph) { graph.FoldBN(g) }

func fuse(g *graph.Graph) int { return graph.FusePatterns(g) }

func pruner() func(*graph.Graph) { return graph.Prune(0.5) }

func suppressed(g *graph.Graph) {
	graph.FoldBN(g) // edgelint:ignore pass-verify
}

func notAPass(g *graph.Graph) { graph.Validate(g) }

// FoldBN is a local function, not the graph pass.
func FoldBN() {}

func local() { FoldBN() }
`)
	wantRules(t, lintPackage(p), "pass-verify", "pass-verify", "pass-verify")
}

func TestPassVerifyAllowedInOpt(t *testing.T) {
	e := newEnv(t)
	e.add(graphPkg, fakeGraphPasses)
	p := e.add(optPkg, `package opt

import "edgebench/internal/graph"

// FoldBN is a fake verified wrapper.
func FoldBN(g *graph.Graph) { graph.FoldBN(g) }
`)
	for _, f := range lintPackage(p) {
		if f.rule == "pass-verify" {
			t.Fatalf("pass-verify reported inside %s: %s", optPkg, f.msg)
		}
	}
}

func TestPanicInErr(t *testing.T) {
	e := newEnv(t)
	p := e.add("example.com/m/panics", `package panics

import "errors"

func bad() error { panic("boom") }

func badNamed() (err error) {
	if true {
		panic("nested boom")
	}
	return nil
}

func okNoErr() { panic("allowed: no error in signature") }

func okReturns() error { return errors.New("fine") }

func okFuncLit() error {
	defer func() { panic("recover helpers are exempt") }()
	return nil
}
`)
	wantRules(t, lintPackage(p), "panic-in-err", "panic-in-err")
}

func TestExportedDoc(t *testing.T) {
	e := newEnv(t)
	p := e.add("edgebench/internal/verify", `package verify

// Documented is fine.
type Documented struct{}

type Undocumented struct{}

// Blocks cover their specs.
const (
	BlockA = 1
	BlockB = 2
)

func Exported() {}

func unexported() {}

// Method docs count.
func (d Documented) Ok() {}

func (d Documented) Missing() {}

type hidden struct{}

func (h hidden) Exported() {} // unexported receiver: not API
`)
	wantRules(t, lintPackage(p), "exported-doc", "exported-doc", "exported-doc")
}

// unusedSrc is an engine package with one exported identifier of each
// standing the unused-export rule tells apart.
const unusedSrc = `package tensor

// Used is called from another package.
func Used() {}

// Local is called only in this file.
func Local() {}

func helper() { Local() }

// Dead has no caller.
func Dead() {}

// Seam is reached only from tests.
//
// edgelint:seam tests read it.
func Seam() {}

// Bare is marked without a reason.
//
// edgelint:seam
func Bare() {}

// T is reached through a field and through fmt.
type T struct{ F int }

// String is what fmt prints.
func (T) String() string { return "t" }

// Make returns a T.
func Make() T { return T{} }
`

// TestUnusedExport: in an engine package, an exported identifier used
// only in its own file, one used nowhere and a seam without a reason are
// flagged; one used from another package, a seam with a reason, a type
// reached only through a field and a fmt.Stringer method are not.
func TestUnusedExport(t *testing.T) {
	e := newEnv(t)
	p := e.add(tensorPkg, unusedSrc)
	e.add("edgebench/internal/user", `package user

import "edgebench/internal/tensor"

func use() int {
	tensor.Used()
	return tensor.Make().F
}
`)
	fs := lintPackage(p)
	wantRules(t, fs, "unused-export", "unused-export", "unused-export")
	for i, name := range []string{"Local", "Dead", "Bare"} {
		if !strings.Contains(fs[i].msg, name) {
			t.Errorf("finding %d = %q, want one naming %s", i, fs[i].msg, name)
		}
	}
}

// TestUnusedExportOutsideEngine: the rule holds internal/graph and
// internal/tensor only.
func TestUnusedExportOutsideEngine(t *testing.T) {
	e := newEnv(t)
	p := e.add("edgebench/internal/other", strings.Replace(unusedSrc, "package tensor", "package other", 1))
	wantRules(t, lintPackage(p))
}

func TestIgnoreDirective(t *testing.T) {
	e := newEnv(t)
	p := e.add("example.com/m/ign", `package ign

func sameLine(a, b float64) bool { return a == b } // edgelint:ignore float-eq

// edgelint:ignore float-eq
func lineAbove(a, b float64) bool { return a == b }

// edgelint:ignore nodes-mut
func wrongRule(a, b float64) bool { return a == b }
`)
	wantRules(t, lintPackage(p), "float-eq")
}

func TestSelected(t *testing.T) {
	root := "/repo"
	cases := []struct {
		dir      string
		patterns []string
		want     bool
	}{
		{"/repo/internal/graph", []string{"./..."}, true},
		{"/repo/internal/graph", []string{"./internal/..."}, true},
		{"/repo/internal/graph", []string{"./internal/graph"}, true},
		{"/repo/internal/graph", []string{"internal/graph"}, true},
		{"/repo/internal/graph", []string{"./internal/graph/"}, true},
		{"/repo/internal/graph", []string{"./cmd/..."}, false},
		{"/repo/internal/graphics", []string{"./internal/graph/..."}, false},
		{"/repo", []string{"./..."}, true},
	}
	for _, c := range cases {
		if got := selected(c.dir, root, c.patterns); got != c.want {
			t.Errorf("selected(%q, %v) = %v, want %v", c.dir, c.patterns, got, c.want)
		}
	}
}

// TestSelfLint runs the analyzer over the repository itself: the tree
// must stay lint-clean, and the loader must keep handling the real
// module.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	root, module, err := findModule(".")
	if err != nil {
		t.Fatalf("findModule: %v", err)
	}
	pkgs, err := loadModule(root, module)
	if err != nil {
		t.Fatalf("loadModule: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(pkgs))
	}
	for _, p := range pkgs {
		for _, f := range lintPackage(p) {
			t.Errorf("%s:%d: %s: %s", f.pos.Filename, f.pos.Line, f.rule, f.msg)
		}
	}
}

// TestFakeQuant pins the fake-quant rule: a direct
// QuantizeSymmetric/QuantizePerChannel call chained straight into
// Dequantize is flagged, while the two-statement form (which keeps the
// QTensor alive) and unrelated Dequantize methods are not.
func TestFakeQuant(t *testing.T) {
	e := newEnv(t)
	e.add(tensorPkg, fakeTensor+`
// QTensor is a fake.
type QTensor struct{}

// Dequantize is a fake.
func (q *QTensor) Dequantize() *Tensor { return nil }

// QuantizeSymmetric is a fake.
func QuantizeSymmetric(t *Tensor) *QTensor { return nil }

// QuantizePerChannel is a fake.
func QuantizePerChannel(t *Tensor) *QTensor { return nil }
`)
	p := e.add("example.com/m/quser", `package quser

import "edgebench/internal/tensor"

func chained(t *tensor.Tensor) *tensor.Tensor {
	return tensor.QuantizeSymmetric(t).Dequantize()
}

func chainedPerChannel(t *tensor.Tensor) *tensor.Tensor {
	return tensor.QuantizePerChannel(t).Dequantize()
}

func twoStatement(t *tensor.Tensor) *tensor.Tensor {
	q := tensor.QuantizeSymmetric(t)
	return q.Dequantize()
}

type other struct{}

func (other) Dequantize() int { return 0 }

func makeOther() other { return other{} }

func unrelated() int { return makeOther().Dequantize() }
`)
	wantRules(t, lintPackage(p), "fake-quant", "fake-quant")
}

// TestHandlerCtx pins the handler-ctx rule: handlers doing per-request
// work must consult r.Context() or delegate r; static responders and
// non-handler signatures are exempt.
func TestHandlerCtx(t *testing.T) {
	e := newEnv(t)
	p := e.add("example.com/m/httpuser", `package httpuser

import "net/http"

func bad(w http.ResponseWriter, r *http.Request) {
	if r.Method != "POST" {
		w.WriteHeader(405)
	}
}

func good(w http.ResponseWriter, r *http.Request) {
	<-r.Context().Done()
	w.WriteHeader(200)
}

func delegates(w http.ResponseWriter, r *http.Request) {
	http.NotFound(w, r)
}

func static(w http.ResponseWriter, r *http.Request) {
	_, _ = w.Write([]byte("ok"))
}

var litBad = func(w http.ResponseWriter, r *http.Request) {
	_ = r.URL
}

func notHandler(a string, b int) { _ = a }
`)
	wantRules(t, lintPackage(p), "handler-ctx", "handler-ctx")
}

// TestAtomicMixed seeds the acceptance bug: a struct field bumped via
// atomic.AddInt64 in one method and read plainly in another — the
// DispatchCounts-style race the typed atomics exist to prevent.
func TestAtomicMixed(t *testing.T) {
	e := newEnv(t)
	p := e.add("example.com/m/counters", `package counters

import "sync/atomic"

type stats struct {
	hits   int64
	misses int64
}

func (s *stats) inc() { atomic.AddInt64(&s.hits, 1) }

func (s *stats) read() int64 { return s.hits }

func (s *stats) atomicRead() int64 { return atomic.LoadInt64(&s.hits) }

func (s *stats) plainOnly() int64 { s.misses++; return s.misses }

var total int64

func bump() { atomic.AddInt64(&total, 1) }

func reset() { total = 0 }
`)
	wantRules(t, lintPackage(p), "atomic-mixed", "atomic-mixed")
}

// fakeServing is a stand-in engine for the mutex-infer rule (the real
// docPackages set covers internal/serving, so the fakes carry docs).
const fakeServing = `package serving

// Engine is a fake.
type Engine struct{}

// Infer is a fake.
func (e *Engine) Infer(x []float32) ([]float32, error) { return x, nil }
`

func TestMutexInfer(t *testing.T) {
	e := newEnv(t)
	e.add("edgebench/internal/serving", fakeServing)
	p := e.add("example.com/m/muser", `package muser

import (
	"sync"

	"edgebench/internal/serving"
)

type srv struct {
	mu  sync.Mutex
	eng *serving.Engine
}

func (s *srv) bad(x []float32) ([]float32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Infer(x)
}

func (s *srv) good(x []float32) ([]float32, error) {
	s.mu.Lock()
	s.mu.Unlock()
	return s.eng.Infer(x)
}
`)
	fs := lintPackage(p)
	wantRules(t, fs, "mutex-infer")
	if !strings.Contains(fs[0].msg, "s.mu") {
		t.Fatalf("finding should name the held mutex: %s", fs[0].msg)
	}
}

// TestGoLifetime pins the serving-stack goroutine rule: unplumbed
// goroutines (literal or resolved same-package callee) are flagged,
// while WaitGroup/done-channel/context plumbing passes.
func TestGoLifetime(t *testing.T) {
	e := newEnv(t)
	p := e.add("edgebench/internal/server", `package server

import (
	"context"
	"sync"
)

type worker struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func (w *worker) start() {
	w.wg.Add(1)
	go w.loop()
	go leak()
	go func() {
		for i := 0; i < 10; i++ {
			_ = i
		}
	}()
	go func() {
		defer w.wg.Done()
	}()
	go handle(context.Background())
}

func (w *worker) loop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			return
		}
	}
}

func leak() {
	for i := 0; ; i++ {
		_ = i
	}
}

func handle(ctx context.Context) { <-ctx.Done() }
`)
	wantRules(t, lintPackage(p), "go-lifetime", "go-lifetime")
}

// TestGoLifetimeTensorPool pins the rule's tensor-package contract: the
// persistent worker-pool idiom (worker receives the generation's stop
// channel as an argument) passes via the done-channel exemption, while
// an unplumbed long-lived goroutine in the same package still fires.
func TestGoLifetimeTensorPool(t *testing.T) {
	e := newEnv(t)
	p := e.add("edgebench/internal/tensor", `package tensor

type task struct{}

func ensure() {
	queue := make(chan *task)
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		go poolWorker(queue, stop) // exempt: stop channel handed in
	}
	go runaway()
}

func poolWorker(queue chan *task, stop chan struct{}) {
	for {
		select {
		case <-queue:
		case <-stop:
			return
		}
	}
}

func runaway() {
	for i := 0; ; i++ {
		_ = i
	}
}
`)
	wantRules(t, lintPackage(p), "go-lifetime")
}

// TestGoLifetimeScope proves the rule stays out of kernel packages:
// the same unplumbed goroutine is legal outside the serving stack.
func TestGoLifetimeScope(t *testing.T) {
	e := newEnv(t)
	p := e.add("example.com/m/elsewhere", `package elsewhere

func spawn() {
	go func() {
		for i := 0; i < 10; i++ {
			_ = i
		}
	}()
}
`)
	for _, f := range lintPackage(p) {
		if f.rule == "go-lifetime" {
			t.Fatalf("go-lifetime fired outside the serving stack: %s", f.msg)
		}
	}
}

// TestGoLifetimeClusterScope pins internal/cluster into the rule's
// scope: the distributed pipeline's connection readers and compute
// loops must be joinable, so an unplumbed goroutine there fires while
// the worker's done-channel idiom passes.
func TestGoLifetimeClusterScope(t *testing.T) {
	e := newEnv(t)
	p := e.add("edgebench/internal/cluster", `package cluster

type Worker struct {
	done chan struct{}
}

func (w *Worker) run() {
	go w.acceptLoop() // exempt: selects on w.done
	go orphanReader() // unplumbed: must fire
}

func (w *Worker) acceptLoop() {
	for {
		select {
		case <-w.done:
			return
		}
	}
}

func orphanReader() {
	for i := 0; ; i++ {
		_ = i
	}
}
`)
	wantRules(t, lintPackage(p), "go-lifetime")
}

func TestWgAdd(t *testing.T) {
	e := newEnv(t)
	p := e.add("example.com/m/wga", `package wga

import "sync"

func bad() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1)
		defer wg.Done()
	}()
	wg.Wait()
}

func good() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}
`)
	wantRules(t, lintPackage(p), "wg-add")
}

func TestUncheckedError(t *testing.T) {
	e := newEnv(t)
	p := e.add("example.com/m/euser", `package euser

import (
	"bytes"
	"errors"
	"fmt"
	"os"
)

func work() error { return errors.New("x") }

func multi() (int, error) { return 0, nil }

func drop() {
	work()
	multi()
	_ = work()
	if err := work(); err != nil {
		_ = err
	}
	fmt.Println("ok")
	fmt.Fprintf(os.Stderr, "x")
	var b bytes.Buffer
	b.WriteString("x")
	defer work()
	go work()
}
`)
	wantRules(t, lintPackage(p), "unchecked-error", "unchecked-error")
}

// fakeTensorInto is a stand-in kernel surface for the into-alias rule.
const fakeTensorInto = `package tensor

// Tensor is a fake.
type Tensor struct{ Data []float32 }

// AddInto is a fake.
func AddInto(dst, a, b *Tensor) {}

// DenseInto is a fake.
func DenseInto(dst []float32, w *Tensor, bias, x []float32) {}
`

func TestIntoAlias(t *testing.T) {
	e := newEnv(t)
	e.add(tensorPkg, fakeTensorInto)
	p := e.add("example.com/m/iuser", `package iuser

import "edgebench/internal/tensor"

func bad(t, u *tensor.Tensor) { tensor.AddInto(t, t, u) }

func badField(t *tensor.Tensor, w *tensor.Tensor) {
	tensor.DenseInto(t.Data, w, nil, t.Data)
}

func ok(d, a, b *tensor.Tensor) { tensor.AddInto(d, a, b) }

func unprovable(ts []*tensor.Tensor) { tensor.AddInto(ts[0], ts[0], ts[1]) }
`)
	wantRules(t, lintPackage(p), "into-alias", "into-alias")
}

// TestRuleSelection pins the -enable/-disable plumbing: the enabled set
// filters analyzers, and unknown names are rejected loudly.
func TestRuleSelection(t *testing.T) {
	e := newEnv(t)
	p := e.add("example.com/m/sel", `package sel

import "errors"

func work() error { return errors.New("x") }

func f(a, b float64) bool {
	work()
	return a == b
}
`)
	wantRules(t, lintPackage(p), "unchecked-error", "float-eq")

	only, err := ruleSet("float-eq", "")
	if err != nil {
		t.Fatalf("ruleSet(enable): %v", err)
	}
	wantRules(t, lintPackageRules(p, only), "float-eq")

	without, err := ruleSet("", "float-eq")
	if err != nil {
		t.Fatalf("ruleSet(disable): %v", err)
	}
	wantRules(t, lintPackageRules(p, without), "unchecked-error")

	if _, err := ruleSet("no-such-rule", ""); err == nil {
		t.Fatal("unknown rule name must be rejected")
	}
	if _, err := ruleSet("", "float-eq, no-such-rule"); err == nil {
		t.Fatal("unknown rule name in -disable must be rejected")
	}
}

// TestRenderJSON is the golden test for -json output: stable field
// names, root-relative paths, findings already filtered through ignore
// directives, and an empty array (not null) when clean.
func TestRenderJSON(t *testing.T) {
	e := newEnv(t)
	p := e.add("example.com/m/jsonpkg", `package jsonpkg

func cmp(a, b float64) bool { return a == b }

func ignored(a, b float64) bool { return a == b } // edgelint:ignore float-eq
`)
	got, err := renderJSON(lintPackage(p), ".")
	if err != nil {
		t.Fatalf("renderJSON: %v", err)
	}
	want := `[
  {
    "file": "example.com_m_jsonpkg.go",
    "line": 3,
    "col": 40,
    "rule": "float-eq",
    "msg": "== on floating-point operands; compare with a tolerance"
  }
]`
	if string(got) != want {
		t.Fatalf("JSON output drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}

	empty, err := renderJSON(nil, ".")
	if err != nil {
		t.Fatalf("renderJSON(empty): %v", err)
	}
	if string(empty) != "[]" {
		t.Fatalf("empty findings must render as [], got %s", empty)
	}
}

// TestRegistry pins that every documented rule is registered exactly
// once (register panics on duplicates at init, so reaching here means
// names are unique).
func TestRegistry(t *testing.T) {
	want := []string{
		"atomic-mixed", "exported-doc", "fake-quant", "float-eq",
		"go-lifetime", "handler-ctx", "into-alias",
		"mutex-infer", "nodes-mut", "panic-in-err", "pass-verify",
		"pool-alloc", "unchecked-error", "unused-export", "wg-add",
	}
	got := analyzerNames()
	if len(got) != len(want) {
		t.Fatalf("registered rules %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rule %d = %s, want %s", i, got[i], want[i])
		}
	}
}
