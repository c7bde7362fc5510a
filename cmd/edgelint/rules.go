package main

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// graphPkg is the only package allowed to mutate Graph.Nodes directly.
const graphPkg = "edgebench/internal/graph"

// tensorPkg is the kernel package whose allocator the pool-alloc rule
// guards against inside the executor.
const tensorPkg = "edgebench/internal/tensor"

// docPackages are the packages whose exported declarations must carry
// doc comments (the exported-doc rule): the IR-critical substrate plus
// the serving stack, whose API is what operators script against.
var docPackages = map[string]bool{
	"edgebench/internal/graph":   true,
	"edgebench/internal/tensor":  true,
	"edgebench/internal/verify":  true,
	"edgebench/internal/serving": true,
	"edgebench/internal/server":  true,
}

// finding is one rule violation at a source position.
type finding struct {
	pos  token.Position
	rule string
	msg  string
}

// floatEqAnalyzer flags == and != between floating-point operands. Exact
// float comparison is how calibration drift and quantization error sneak
// past review; compare against a tolerance instead. Two carve-outs:
// comparison against constant zero is exempt (zero is exactly
// representable, and `x == 0` division guards / sparse skips are
// idiomatic), and test files are not parsed at all, so golden-value
// assertions stay legal.
var floatEqAnalyzer = register(&Analyzer{
	Name: "float-eq",
	Doc:  "no ==/!= on floating-point operands; compare with a tolerance",
	Run: func(ctx *Context) {
		ctx.Preorder([]ast.Node{(*ast.BinaryExpr)(nil)}, func(n ast.Node) {
			be := n.(*ast.BinaryExpr)
			if be.Op != token.EQL && be.Op != token.NEQ {
				return
			}
			if isConstZero(ctx.pkg, be.X) || isConstZero(ctx.pkg, be.Y) {
				return
			}
			if isFloat(ctx.typeOf(be.X)) || isFloat(ctx.typeOf(be.Y)) {
				ctx.reportf(be.OpPos, "%s on floating-point operands; compare with a tolerance", be.Op)
			}
		})
	},
})

// isConstZero reports whether e is a compile-time constant equal to
// zero.
func isConstZero(p *pkg, e ast.Expr) bool {
	tv, ok := p.info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// nodesMutAnalyzer flags assignments through graph.Graph.Nodes outside
// internal/graph: appending, replacing, or writing elements of the node
// list bypasses Add/Append and breaks ID uniqueness, topological
// ordering, and freeze discipline.
var nodesMutAnalyzer = register(&Analyzer{
	Name:    "nodes-mut",
	Doc:     "no direct graph.Graph.Nodes mutation outside internal/graph",
	Applies: func(path string) bool { return path != graphPkg },
	Run: func(ctx *Context) {
		ctx.Preorder([]ast.Node{(*ast.AssignStmt)(nil)}, func(n ast.Node) {
			as := n.(*ast.AssignStmt)
			for _, lhs := range as.Lhs {
				sel, ok := baseExpr(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Nodes" {
					continue
				}
				if !isGraphType(ctx.typeOf(sel.X)) {
					continue
				}
				ctx.reportf(sel.Pos(), "direct graph.Graph.Nodes mutation outside internal/graph; use Graph.Add or Graph.Append")
			}
		})
	},
})

// baseExpr unwraps parens, indexing, slicing, and derefs down to the
// expression being assigned through.
func baseExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return e
		}
	}
}

func isGraphType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == graphPkg && obj.Name() == "Graph"
}

// poolAllocAnalyzer flags direct tensor.New calls inside internal/graph:
// kernels must obtain output buffers through the step allocator
// (frame.alloc) so the static-graph planner's arena keeps being reused.
// A new op wired up with tensor.New would silently regress steady-state
// allocation behaviour; the allocator's own "fresh" case is the one
// sanctioned call and carries an edgelint:ignore directive.
var poolAllocAnalyzer = register(&Analyzer{
	Name:    "pool-alloc",
	Doc:     "no direct tensor.New inside internal/graph; use the pool-aware allocator",
	Applies: func(path string) bool { return path == graphPkg },
	Run: func(ctx *Context) {
		ctx.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
			call := n.(*ast.CallExpr)
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "New" {
				return
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return
			}
			pn, ok := ctx.pkg.info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != tensorPkg {
				return
			}
			ctx.reportf(call.Pos(), "tensor.New inside internal/graph; allocate through the step allocator (frame.alloc) so planned buffers are reused")
		})
	},
})

// optPkg is the pass-manager package: the sanctioned call site for
// graph rewrites outside internal/graph itself.
const optPkg = "edgebench/internal/opt"

// graphPassFns are the internal/graph rewrite functions the pass-verify
// rule fences in: each mutates graph structure, so production code must
// reach them through internal/opt, whose gate re-proves the IR
// invariants after every run.
var graphPassFns = map[string]bool{
	"FoldBN":                 true,
	"EliminateDead":          true,
	"QuantizeINT8":           true,
	"QuantizeINT8PerChannel": true,
	"CastFP16":               true,
	"Prune":                  true,
	"FusePatterns":           true,
	"FoldConstants":          true,
	"EliminateIdentity":      true,
}

// passVerifyAnalyzer flags references to internal/graph's rewrite
// passes outside internal/graph and internal/opt: a raw pass call skips
// the verify gate, so an illegal rewrite would surface as a corrupted
// inference instead of a structured diagnostic. Test files are not
// parsed, so pass unit tests keep calling the raw functions; a
// deliberately unverified pipeline would carry an edgelint:ignore
// directive (none does today).
var passVerifyAnalyzer = register(&Analyzer{
	Name:    "pass-verify",
	Doc:     "no raw internal/graph pass calls outside internal/graph and internal/opt; go through the verified pass manager",
	Applies: func(path string) bool { return path != graphPkg && path != optPkg },
	Run: func(ctx *Context) {
		ctx.Preorder([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node) {
			sel := n.(*ast.SelectorExpr)
			if !graphPassFns[sel.Sel.Name] {
				return
			}
			obj := ctx.pkg.info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != graphPkg {
				return
			}
			ctx.reportf(sel.Pos(), "graph.%s bypasses the verified pass manager; use the internal/opt wrapper", sel.Sel.Name)
		})
	},
})

// quantRoundTripFns are the tensor-package quantizers whose result the
// fake-quant rule watches for an immediate Dequantize.
var quantRoundTripFns = map[string]bool{
	"QuantizeSymmetric":  true,
	"QuantizePerChannel": true,
}

// fakeQuantAnalyzer flags QuantizeSymmetric(x).Dequantize() (and the
// per-channel variant) call chains: quantizing and immediately
// dequantizing simulates int8 error but throws the int8 codes away, so
// the node can never reach the real int8 kernels. Now that the runtime
// executes QTensors directly, keep the quantized tensor — bind it to a
// variable, hand it to the executor as QWeights, and derive the FP32
// shadow from that binding. Test files are not parsed, so accuracy
// tests may still round-trip freely.
var fakeQuantAnalyzer = register(&Analyzer{
	Name: "fake-quant",
	Doc:  "no Quantize*(x).Dequantize() round-trips; keep the QTensor",
	Run: func(ctx *Context) {
		ctx.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
			call := n.(*ast.CallExpr)
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Dequantize" {
				return
			}
			inner, ok := sel.X.(*ast.CallExpr)
			if !ok {
				return
			}
			name, obj := calleeObject(ctx.pkg, inner.Fun)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != tensorPkg || !quantRoundTripFns[name] {
				return
			}
			ctx.reportf(call.Pos(), "%s(...).Dequantize() discards the int8 codes; keep the QTensor so the runtime can execute real int8 kernels", name)
		})
	},
})

// calleeObject resolves a call's callee expression to its name and
// types.Object (nil when the callee is not a plain function reference).
func calleeObject(p *pkg, fun ast.Expr) (string, types.Object) {
	switch x := fun.(type) {
	case *ast.Ident:
		return x.Name, p.info.Uses[x]
	case *ast.SelectorExpr:
		return x.Sel.Name, p.info.Uses[x.Sel]
	}
	return "", nil
}

// panicInErrAnalyzer flags direct panic calls inside functions whose
// signature returns error: the signature promised callers a recoverable
// failure path, so deliver the failure through it. Function literals are
// skipped — deferred recover helpers and intentionally-fatal callbacks
// are their own scope.
var panicInErrAnalyzer = register(&Analyzer{
	Name: "panic-in-err",
	Doc:  "a function that returns error must not call panic",
	Run: func(ctx *Context) {
		ctx.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
			fd := n.(*ast.FuncDecl)
			if fd.Body == nil || !returnsError(ctx.pkg, fd) {
				return
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if obj, ok := ctx.pkg.info.Uses[id]; ok {
					if _, builtin := obj.(*types.Builtin); !builtin {
						return true // a local function shadowing the builtin
					}
				}
				ctx.reportf(call.Pos(), "%s returns error but panics; return the error instead", fd.Name.Name)
				return true
			})
		})
	},
})

func returnsError(p *pkg, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	for _, field := range fd.Type.Results.List {
		if t := p.info.TypeOf(field.Type); t != nil && types.Identical(t, errType) {
			return true
		}
	}
	return false
}

// httpPkg anchors the handler-ctx rule's type checks.
const httpPkg = "net/http"

// handlerCtxAnalyzer flags HTTP handlers — functions or literals with
// the func(http.ResponseWriter, *http.Request) signature — that do
// per-request work (they read the request) but never consult
// r.Context() and never delegate r to another handler. Such a handler
// keeps serving after the client hung up or its deadline passed, which
// on an inference server means burning an engine slot for a response
// nobody will read. Handlers that never touch the request at all
// (static responders like /healthz) are exempt: they have no work to
// cancel.
var handlerCtxAnalyzer = register(&Analyzer{
	Name: "handler-ctx",
	Doc:  "HTTP handlers that read the request must consult r.Context()",
	Run: func(ctx *Context) {
		p := ctx.pkg
		check := func(ft *ast.FuncType, body *ast.BlockStmt, what string, pos token.Pos) {
			if body == nil || ft.Params == nil || len(ft.Params.List) != 2 {
				return
			}
			wField, rField := ft.Params.List[0], ft.Params.List[1]
			if len(wField.Names) != 1 || len(rField.Names) != 1 {
				return // combined or anonymous params: not the handler idiom
			}
			if !isResponseWriter(p.info.TypeOf(wField.Type)) || !isRequestPtr(p.info.TypeOf(rField.Type)) {
				return
			}
			reqObj := p.info.Defs[rField.Names[0]]
			if reqObj == nil {
				return // blank request param: nothing to misuse
			}
			isReq := func(e ast.Expr) bool {
				id, ok := e.(*ast.Ident)
				return ok && p.info.Uses[id] == reqObj
			}
			var usesReq, hasCtx, delegates bool
			ast.Inspect(body, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Ident:
					if p.info.Uses[x] == reqObj {
						usesReq = true
					}
				case *ast.SelectorExpr:
					if x.Sel.Name == "Context" && isReq(x.X) {
						hasCtx = true
					}
				case *ast.CallExpr:
					for _, arg := range x.Args {
						if isReq(arg) {
							delegates = true
						}
					}
				}
				return true
			})
			if usesReq && !hasCtx && !delegates {
				ctx.reportf(pos, "%s reads the request but ignores r.Context(); propagate cancellation (or delegate r)", what)
			}
		}
		ctx.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
			switch d := n.(type) {
			case *ast.FuncDecl:
				check(d.Type, d.Body, "handler "+d.Name.Name, d.Name.Pos())
			case *ast.FuncLit:
				check(d.Type, d.Body, "handler literal", d.Pos())
			}
		})
	},
})

// isResponseWriter reports whether t is net/http.ResponseWriter.
func isResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == httpPkg && obj.Name() == "ResponseWriter"
}

// isRequestPtr reports whether t is *net/http.Request.
func isRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == httpPkg && obj.Name() == "Request"
}

// exportedDocAnalyzer flags exported top-level declarations without doc
// comments in the doc-mandatory packages: the graph IR and tensor
// kernels are the substrate every experiment trusts, and the serving
// stack is the API operators script against, so their contracts must be
// written down. A doc comment on a const/var/type block covers the whole
// block.
var exportedDocAnalyzer = register(&Analyzer{
	Name:    "exported-doc",
	Doc:     "exported declarations in IR-critical and serving packages need doc comments",
	Applies: func(path string) bool { return docPackages[path] },
	Run: func(ctx *Context) {
		eachExported(ctx.files(), func(name *ast.Ident, doc *ast.CommentGroup, kind string) {
			if doc == nil {
				ctx.reportf(name.Pos(), "exported %s %s has no doc comment", kind, name.Name)
			}
		})
	},
})

// eachExported calls fn for every exported top-level declaration in
// files — functions, methods on exported types, types and values — with
// its doc comment (a const/var/type block's covers the whole block) and
// its kind: "function", "type" or "value".
func eachExported(files []*ast.File, fn func(name *ast.Ident, doc *ast.CommentGroup, kind string)) {
	visit := func(name *ast.Ident, doc *ast.CommentGroup, kind string) {
		if name.IsExported() {
			fn(name, doc, kind)
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && !exportedReceiver(d.Recv) {
					continue // method on an unexported type: not API surface
				}
				visit(d.Name, d.Doc, "function")
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						doc := s.Doc
						if doc == nil {
							doc = d.Doc
						}
						visit(s.Name, doc, "type")
					case *ast.ValueSpec:
						doc := s.Doc
						if doc == nil {
							doc = d.Doc
						}
						for _, name := range s.Names {
							visit(name, doc, "value")
						}
					}
				}
			}
		}
	}
}

// enginePackages are the packages whose exported API the unused-export
// rule holds to a non-test caller (ROADMAP aim 2: every branch of the
// engine is on the measured path).
var enginePackages = map[string]bool{graphPkg: true, tensorPkg: true}

// fmtMethods are the method names package fmt calls through an
// interface, which no module file names at the call.
var fmtMethods = map[string]bool{"String": true, "Error": true}

// seamDirective marks an exported engine identifier that only tests
// reach on purpose; the rest of the line (and of its comment paragraph)
// is the reason, which must not be empty.
const seamDirective = "edgelint:seam"

// unusedExportAnalyzer flags an exported identifier of internal/graph or
// internal/tensor that no non-test file references outside the file
// declaring it: exported code that only tests reach is not on any path
// the engine runs. Used only in its own file, it should be unexported;
// used nowhere, deleted. A test seam says so with an "edgelint:seam
// <reason>" line in its doc comment. A type counts as referenced when its
// name, a field or a method is. A method is reached only through its
// name, except the ones package fmt calls through its interfaces
// (String, Error), so any other that satisfies an interface needs a seam
// too.
var unusedExportAnalyzer = register(&Analyzer{
	Name:    "unused-export",
	Doc:     "exported internal/graph and internal/tensor identifiers need a non-test reference outside their file, or an edgelint:seam reason",
	Applies: func(path string) bool { return enginePackages[path] },
	Run: func(ctx *Context) {
		outside, inside := referenced(ctx.pkg)
		eachExported(ctx.files(), func(name *ast.Ident, doc *ast.CommentGroup, kind string) {
			if reason, ok := seamReason(doc); ok {
				if reason == "" {
					ctx.reportf(name.Pos(), "%s on %s gives no reason", seamDirective, name.Name)
				}
				return
			}
			obj := ctx.pkg.info.Defs[name]
			switch {
			case obj == nil || outside[obj]:
			case kind == "function" && fmtMethods[name.Name] && obj.Type().(*types.Signature).Recv() != nil:
			case inside[obj]:
				ctx.reportf(name.Pos(), "exported %s %s is used only in its own file; unexport it", kind, name.Name)
			default:
				ctx.reportf(name.Pos(), "exported %s %s has no non-test reference; delete it, or mark it %s <reason>", kind, name.Name, seamDirective)
			}
		})
	},
})

// origin maps an instantiated generic function, method or field to its
// declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// seamReason returns the text after the seam directive in doc, with
// ok false when doc carries none.
func seamReason(doc *ast.CommentGroup) (reason string, ok bool) {
	if doc == nil {
		return "", false
	}
	_, reason, ok = strings.Cut(doc.Text(), seamDirective)
	reason, _, _ = strings.Cut(reason, "\n\n")
	return strings.TrimSpace(reason), ok
}

// referenced returns the objects of p that a module package's non-test
// files reference outside the file declaring them, and those referenced
// only inside it. A field or method reference also marks its named
// type.
func referenced(p *pkg) (outside, inside map[types.Object]bool) {
	owner := map[types.Object]types.Object{} // field or method -> its named type
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			owner[named.Method(i)] = tn
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				owner[st.Field(i)] = tn
			}
		}
	}
	outside, inside = map[types.Object]bool{}, map[types.Object]bool{}
	for _, q := range p.module {
		for id, obj := range q.info.Uses {
			obj = origin(obj)
			if obj.Pkg() != p.types {
				continue
			}
			for _, o := range []types.Object{obj, owner[obj]} {
				switch {
				case o == nil:
				case q != p || p.fset.File(id.Pos()) != p.fset.File(o.Pos()):
					outside[o] = true
				default:
					inside[o] = true
				}
			}
		}
	}
	return outside, inside
}

// exportedReceiver reports whether a method's receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}
