// Hot-path rule family: checks that reason about reachability from the
// inference entry points. The pre-pack layer moved panel packing to
// session open precisely so the per-request path never pays it again;
// these rules keep that boundary from eroding.
package main

import (
	"go/ast"
	"go/types"
)

// hotPackBuilders are the ahead-of-time panel-packing constructors in
// internal/tensor. Each one copies and reorders an entire weight
// operand; on the request path that undoes the pre-pack optimization
// (the work returns, per call, hidden behind a cached-looking API).
var hotPackBuilders = map[string]bool{
	"PackConvWeights":   true,
	"PackQConvWeights":  true,
	"PackQDenseWeights": true,
}

// hotPackRoots name the per-request entry points: any function or
// method with one of these names is treated as the start of a hot
// path. Session-open surfaces (NewEngine, configure, Connect) are
// deliberately absent — that is where packing belongs.
var hotPackRoots = map[string]bool{
	"Infer":      true,
	"InferBatch": true,
	"Run":        true,
	"RunValues":  true,
}

// isPackBuilder classifies a call as an AOT panel-pack constructor:
// one of the tensor-package builders, or the graph-package sweep that
// invokes them zoo-wide.
func isPackBuilder(ctx *Context, call *ast.CallExpr) (string, bool) {
	name, obj := calleeObject(ctx.pkg, call.Fun)
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch obj.Pkg().Path() {
	case tensorPkg:
		if hotPackBuilders[name] {
			return "tensor." + name, true
		}
	case graphPkg:
		if name == "PrepackWeights" {
			return "graph.PrepackWeights", true
		}
	}
	return "", false
}

// hotPackAnalyzer flags panel-pack constructor calls reachable from an
// inference entry point within the same package. Packing a weight
// operand is session-open work: it allocates and reorders the full
// operand, so a pack call on the Infer/Run path re-pays per request
// what the pre-pack pass paid once. The reachability walk is static
// and same-package only (cross-package callees are invisible, so the
// rule under-approximates rather than guesses); function literals
// inside a reachable body — worker goroutines included — are scanned
// with it. Per-call packing does exist, by design, behind internal/tensor's
// unpacked entry points (the kernels of a node nobody packed); what the
// rule guards is the request path of graph, serving, cluster and server.
var hotPackAnalyzer = register(&Analyzer{
	Name: "hot-pack",
	Doc:  "no ahead-of-time panel packing reachable from inference entry points",
	Applies: func(path string) bool {
		switch path {
		case graphPkg, "edgebench/internal/serving",
			"edgebench/internal/cluster", "edgebench/internal/server":
			return true
		}
		return false
	},
	Run: func(ctx *Context) {
		decls := funcDeclMap(ctx)
		edges := map[types.Object][]types.Object{}
		for obj, fd := range decls {
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, callee := calleeObject(ctx.pkg, call.Fun); callee != nil {
					if _, local := decls[callee]; local {
						edges[obj] = append(edges[obj], callee)
					}
				}
				return true
			})
		}
		reachable := map[types.Object]bool{}
		var queue []types.Object
		for obj, fd := range decls {
			if hotPackRoots[fd.Name.Name] {
				reachable[obj] = true
				queue = append(queue, obj)
			}
		}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, callee := range edges[cur] {
				if !reachable[callee] {
					reachable[callee] = true
					queue = append(queue, callee)
				}
			}
		}
		for obj := range reachable {
			fd := decls[obj]
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if name, hit := isPackBuilder(ctx, call); hit {
					ctx.reportf(call.Pos(), "%s called in %s, which is reachable from an inference entry point; panel packing is session-open work — pre-pack once and dispatch on the cached panels",
						name, fd.Name.Name)
				}
				return true
			})
		}
	},
})
