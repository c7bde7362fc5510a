// Concurrency rule family: the checks in this file reason about
// goroutines, locks, and atomics — the bug class the race detector only
// catches when a test happens to interleave badly, but which a static
// walk over the type-checked AST can prove structurally.
package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// modulePrefix scopes receiver-type checks to this module's packages.
const modulePrefix = "edgebench/"

// atomicOpPrefixes are the sync/atomic free functions that take an
// address; any of them marks the pointed-to variable as atomic.
var atomicOpPrefixes = []string{"Add", "Load", "Store", "Swap", "CompareAndSwap"}

func isAtomicOp(name string) bool {
	for _, p := range atomicOpPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// refObject resolves a variable reference (identifier or field
// selection) to its object; nil for anything more complex.
func refObject(p *pkg, e ast.Expr) types.Object {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return refObject(p, x.X)
	case *ast.Ident:
		return p.info.Uses[x]
	case *ast.SelectorExpr:
		return p.info.Uses[x.Sel]
	}
	return nil
}

// atomicMixedAnalyzer flags variables that are accessed both through
// sync/atomic free functions and through plain reads/writes in the same
// package. Mixing the two is a data race the typed atomic wrappers
// (atomic.Int64 and friends) make impossible, which is why the executor
// publishes its dispatch counters through them; code that reaches for
// atomic.AddInt64(&s.n, 1) and then reads s.n directly has silently
// opted back into the race.
var atomicMixedAnalyzer = register(&Analyzer{
	Name: "atomic-mixed",
	Doc:  "no plain access to a variable that is elsewhere accessed via sync/atomic",
	Run: func(ctx *Context) {
		p := ctx.pkg
		atomicAt := map[types.Object]token.Pos{}
		sanctioned := map[ast.Node]bool{}
		ctx.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
			call := n.(*ast.CallExpr)
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !isAtomicOp(sel.Sel.Name) || len(call.Args) == 0 {
				return
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return
			}
			pn, ok := p.info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "sync/atomic" {
				return
			}
			un, ok := call.Args[0].(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				return
			}
			target := un.X
			for {
				if pe, ok := target.(*ast.ParenExpr); ok {
					target = pe.X
					continue
				}
				break
			}
			obj := refObject(p, target)
			if obj == nil {
				return
			}
			if _, seen := atomicAt[obj]; !seen {
				atomicAt[obj] = call.Pos()
			}
			sanctioned[target] = true
		})
		if len(atomicAt) == 0 {
			return
		}
		report := func(n ast.Node, obj types.Object) {
			apos := p.fset.Position(atomicAt[obj])
			ctx.reportf(n.Pos(), "plain access to %s, which is accessed via sync/atomic at %s:%d; mixed atomic/plain access is a data race — use a typed atomic (atomic.Int64 etc.)",
				obj.Name(), filepath.Base(apos.Filename), apos.Line)
		}
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.KeyValueExpr:
				// Composite-literal keys name fields, they do not read them.
				ast.Inspect(x.Value, walk)
				return false
			case *ast.SelectorExpr:
				if !sanctioned[ast.Node(x)] {
					if obj := p.info.Uses[x.Sel]; obj != nil {
						if _, ok := atomicAt[obj]; ok {
							report(x, obj)
						}
					}
				}
				ast.Inspect(x.X, walk)
				return false
			case *ast.Ident:
				if !sanctioned[ast.Node(x)] {
					if obj := p.info.Uses[x]; obj != nil {
						if _, ok := atomicAt[obj]; ok {
							report(x, obj)
						}
					}
				}
			}
			return true
		}
		for _, f := range ctx.files() {
			ast.Inspect(f, walk)
		}
	},
})

// isSyncNamed reports whether t (or its pointee) is the named sync
// package type, e.g. sync.Mutex or sync.WaitGroup.
func isSyncNamed(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}

// inferMethods are the blocking inference entry points the mutex-infer
// rule refuses to see called under a lock.
var inferMethods = map[string]bool{
	"Infer":      true,
	"InferBatch": true,
	"Run":        true,
}

// expensiveCall reports whether call is inference or kernel work: a
// module-internal Infer/Run-family method, or an exported tensor-package
// *Into kernel.
func expensiveCall(ctx *Context, call *ast.CallExpr) (string, bool) {
	name, obj := calleeObject(ctx.pkg, call.Fun)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok && inferMethods[name] && strings.HasPrefix(obj.Pkg().Path(), modulePrefix) {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return name, true
		}
	}
	if obj.Pkg().Path() == tensorPkg && ast.IsExported(name) && strings.HasSuffix(name, "Into") {
		return name, true
	}
	return "", false
}

// mutexCall classifies a call as a lock-state transition on a
// sync.Mutex/RWMutex and returns the mutex expression as its key.
func mutexCall(ctx *Context, call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	t := ctx.typeOf(sel.X)
	if !isSyncNamed(t, "Mutex") && !isSyncNamed(t, "RWMutex") {
		return "", "", false
	}
	return types.ExprString(sel.X), sel.Sel.Name, true
}

// mutexInferAnalyzer flags inference and kernel calls made while a mutex
// is held. A lock held across Infer/Run serializes every request
// goroutine behind one forward pass — exactly the throughput collapse
// the replica pool exists to avoid — and a lock held across a kernel
// call extends the critical section by a full GEMM. The analysis is a
// linear position-ordered scan per function: Lock acquires, Unlock
// releases (a deferred Unlock holds to function end), and any expensive
// call with a lock outstanding is reported. Nested function literals are
// separate scopes with their own scan.
var mutexInferAnalyzer = register(&Analyzer{
	Name: "mutex-infer",
	Doc:  "no Infer/Run or tensor kernel calls while holding a mutex",
	Run: func(ctx *Context) {
		const (
			evAcquire = iota
			evRelease
			evExpensive
		)
		type event struct {
			pos  token.Pos
			kind int
			key  string
		}
		scan := func(body *ast.BlockStmt) {
			var events []event
			deferred := map[ast.Node]bool{}
			ast.Inspect(body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncLit:
					return false // its own scope, scanned separately
				case *ast.DeferStmt:
					deferred[x.Call] = true
				case *ast.CallExpr:
					if key, method, ok := mutexCall(ctx, x); ok {
						switch {
						case method == "Lock" || method == "RLock":
							events = append(events, event{x.Pos(), evAcquire, key})
						case deferred[ast.Node(x)]:
							// deferred Unlock: held to function end
						default:
							events = append(events, event{x.Pos(), evRelease, key})
						}
						return true
					}
					if name, ok := expensiveCall(ctx, x); ok && !deferred[ast.Node(x)] {
						events = append(events, event{x.Pos(), evExpensive, name})
					}
				}
				return true
			})
			sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
			held := map[string]int{}
			heldCount := 0
			for _, ev := range events {
				switch ev.kind {
				case evAcquire:
					held[ev.key]++
					heldCount++
				case evRelease:
					if held[ev.key] > 0 {
						held[ev.key]--
						heldCount--
					}
				case evExpensive:
					if heldCount > 0 {
						var keys []string
						for k, c := range held {
							if c > 0 {
								keys = append(keys, k)
							}
						}
						sort.Strings(keys)
						ctx.reportf(ev.pos, "%s called while holding %s; inference/kernel work under a lock serializes all callers — release the lock before dispatching",
							ev.key, strings.Join(keys, ", "))
					}
				}
			}
		}
		ctx.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					scan(x.Body)
				}
			case *ast.FuncLit:
				scan(x.Body)
			}
		})
	},
})

// funcDeclMap indexes the package's function and method declarations by
// their object, so `go b.loop()` can be resolved to loop's body.
func funcDeclMap(ctx *Context) map[types.Object]*ast.FuncDecl {
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range ctx.files() {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := ctx.pkg.info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	return decls
}

// goBody resolves the body a go statement will execute: the literal's
// body for `go func(){...}()`, or the declaration's body for a named
// same-package callee. Nil when the callee is from another package (the
// rule stays silent rather than guess).
func goBody(ctx *Context, decls map[types.Object]*ast.FuncDecl, g *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return lit.Body
	}
	if _, obj := calleeObject(ctx.pkg, g.Call.Fun); obj != nil {
		if fd, ok := decls[obj]; ok {
			return fd.Body
		}
	}
	return nil
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isDoneChan reports whether t is a channel of empty struct — the done-
// channel idiom — in any direction.
func isDoneChan(t types.Type) bool {
	if t == nil {
		return false
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// hasLifecyclePlumbing reports whether the scanned body touches any
// shutdown/completion mechanism: a context.Context value, a receive from
// a done channel (chan struct{}), a range over a channel (terminates on
// close), or a WaitGroup Done/Wait.
func hasLifecyclePlumbing(ctx *Context, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if obj := ctx.pkg.info.Uses[x]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && isDoneChan(ctx.typeOf(x.X)) {
				found = true
			}
		case *ast.RangeStmt:
			if t := ctx.typeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Done" || sel.Sel.Name == "Wait") &&
				isSyncNamed(ctx.typeOf(sel.X), "WaitGroup") {
				found = true
			}
		}
		return !found
	})
	return found
}

// goLifetimeAnalyzer flags goroutines in the serving stack that have no
// lifecycle plumbing: no context, no done channel, no WaitGroup, no
// channel whose close ends them. Such a goroutine cannot be cancelled or
// awaited, so server shutdown either leaks it or races it; every
// goroutine the dispatcher, load generator, and engine spawn must be
// joinable. Scoped to internal/server, internal/serving, and — since
// the kernels moved from per-call goroutine fan-out to a persistent
// worker pool — internal/tensor, whose long-lived pool workers must be
// retirable: they pass the done-channel exemption because each worker
// receives the generation's stop channel (chan struct{}) as an
// argument, and closing it is exactly how ensurePool retires a
// generation on GOMAXPROCS resize. internal/cluster joined the scope
// with the distributed pipeline: every worker/dispatcher goroutine
// (accept loops, per-connection readers, the compute loop) must be
// joinable through the done channel + WaitGroup teardown or a killed
// stage would leak readers blocked on dead sockets.
var goLifetimeAnalyzer = register(&Analyzer{
	Name: "go-lifetime",
	Doc:  "long-lived goroutines need ctx, a done channel, or a WaitGroup",
	Applies: func(path string) bool {
		switch path {
		case "edgebench/internal/server", "edgebench/internal/serving",
			"edgebench/internal/tensor", "edgebench/internal/cluster":
			return true
		}
		return false
	},
	Run: func(ctx *Context) {
		decls := funcDeclMap(ctx)
		ctx.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
			g := n.(*ast.GoStmt)
			for _, arg := range g.Call.Args {
				if t := ctx.typeOf(arg); isContextType(t) || isDoneChan(t) {
					return // lifecycle handed in explicitly
				}
			}
			body := goBody(ctx, decls, g)
			if body == nil {
				return // cross-package callee: cannot see its body
			}
			if !hasLifecyclePlumbing(ctx, body) {
				ctx.reportf(g.Pos(), "goroutine has no lifecycle plumbing (ctx, done channel, or WaitGroup); shutdown cannot cancel or await it")
			}
		})
	},
})

// wgAddAnalyzer flags WaitGroup.Add calls made inside the goroutine the
// Add is accounting for: the parent's Wait can run before the goroutine
// is scheduled, observe a zero counter, and return while work is still
// in flight. Add must happen-before the go statement.
var wgAddAnalyzer = register(&Analyzer{
	Name: "wg-add",
	Doc:  "WaitGroup.Add belongs before the go statement, not inside the goroutine",
	Run: func(ctx *Context) {
		decls := funcDeclMap(ctx)
		ctx.Preorder([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node) {
			g := n.(*ast.GoStmt)
			body := goBody(ctx, decls, g)
			if body == nil {
				return
			}
			ast.Inspect(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Add" || !isSyncNamed(ctx.typeOf(sel.X), "WaitGroup") {
					return true
				}
				ctx.reportf(call.Pos(), "WaitGroup.Add inside the spawned goroutine; Wait can observe the counter before this runs — move Add before the go statement")
				return true
			})
		})
	},
})

// hasErrorResult reports whether a call's result type includes error.
func hasErrorResult(t types.Type) bool {
	errType := types.Universe.Lookup("error").Type()
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if types.Identical(tup.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errType)
}

// isNamedType reports whether t (or its pointee) is the named type
// pkg.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// uncheckedExempt lists the callees whose dropped error is idiomatic:
// the fmt print family (errors only on broken writers, and the fallback
// would be... printing), and bytes.Buffer / strings.Builder methods,
// which are documented to never return a non-nil error.
func uncheckedExempt(ctx *Context, call *ast.CallExpr) bool {
	name, obj := calleeObject(ctx.pkg, call.Fun)
	if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")) {
		return true
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		t := ctx.typeOf(sel.X)
		if isNamedType(t, "bytes", "Buffer") || isNamedType(t, "strings", "Builder") {
			return true
		}
	}
	return false
}

// uncheckedErrorAnalyzer flags statement-position calls whose error
// result vanishes. A benchmark harness that drops an inference error
// reports the latency of a failure as if it were a success, which is
// worse than crashing — the characterization tables silently stop
// meaning anything. Deferred calls and `go` calls are exempt (there is
// no error path to return through), as are the fmt print family and
// never-failing writers; everything else must handle the error or
// assign it to _ to show the drop is deliberate.
var uncheckedErrorAnalyzer = register(&Analyzer{
	Name: "unchecked-error",
	Doc:  "no statement-position calls that silently drop an error result",
	Run: func(ctx *Context) {
		ctx.Preorder([]ast.Node{(*ast.ExprStmt)(nil)}, func(n ast.Node) {
			stmt := n.(*ast.ExprStmt)
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return
			}
			t := ctx.typeOf(call)
			if t == nil || !hasErrorResult(t) || uncheckedExempt(ctx, call) {
				return
			}
			name, _ := calleeObject(ctx.pkg, call.Fun)
			if name == "" {
				name = "call"
			}
			ctx.reportf(call.Pos(), "%s returns an error that is silently dropped; handle it or assign to _ explicitly", name)
		})
	},
})

// objectPath resolves an expression to the object chain it names
// (x → [x]; x.Data → [x, Data]; &t.Field → [t, Field]); nil for
// anything the rule cannot prove (calls, indexing, arithmetic).
func objectPath(p *pkg, e ast.Expr) []types.Object {
	switch x := e.(type) {
	case *ast.Ident:
		if obj := p.info.Uses[x]; obj != nil {
			return []types.Object{obj}
		}
	case *ast.SelectorExpr:
		base := objectPath(p, x.X)
		if base == nil {
			return nil
		}
		if obj := p.info.Uses[x.Sel]; obj != nil {
			return append(base, obj)
		}
	case *ast.ParenExpr:
		return objectPath(p, x.X)
	case *ast.StarExpr:
		return objectPath(p, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return objectPath(p, x.X)
		}
	}
	return nil
}

// pathsAlias reports whether two object paths name overlapping storage:
// equal paths are the same variable, and a path that extends the other
// (t vs t.Data) reaches through the same tensor.
func pathsAlias(a, b []types.Object) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// intoAliasAnalyzer flags tensor *Into kernel calls whose dst argument
// provably aliases a source argument. The Into kernels document dst as
// exclusive output; a conv or matmul reading a source that is also its
// destination consumes half-written values and produces garbage that no
// shape check can catch. Only provable aliasing (same variable path) is
// flagged — aliasing through the executor's planned buffers is
// verify.CheckPlan's plan-overlap proof.
var intoAliasAnalyzer = register(&Analyzer{
	Name: "into-alias",
	Doc:  "tensor *Into calls must not pass dst as a source argument",
	Run: func(ctx *Context) {
		ctx.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
			call := n.(*ast.CallExpr)
			name, obj := calleeObject(ctx.pkg, call.Fun)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != tensorPkg ||
				!strings.HasSuffix(name, "Into") || len(call.Args) < 2 {
				return
			}
			dst := objectPath(ctx.pkg, call.Args[0])
			if dst == nil {
				return
			}
			for _, src := range call.Args[1:] {
				sp := objectPath(ctx.pkg, src)
				if sp == nil {
					continue
				}
				if pathsAlias(dst, sp) {
					ctx.reportf(call.Pos(), "%s destination %s aliases source %s; the kernel would read its own half-written output",
						name, types.ExprString(call.Args[0]), types.ExprString(src))
					return
				}
			}
		})
	},
})
