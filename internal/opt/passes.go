package opt

import (
	"edgebench/internal/graph"
)

// The level passes. Each wraps a count-returning rewrite from
// internal/graph; runPasses supplies verification, fixpoint iteration,
// and reporting.
var (
	// patternFusion fuses compute→BatchNorm→activation chains into
	// single fused-kernel nodes: the BN becomes a runtime per-channel
	// affine epilogue (bitwise identical to the separate node — unlike
	// FoldBN, nothing rewrites the weights) and the activation becomes
	// the node's fused Activation.
	patternFusion = pass{"pattern-fusion", func(g *graph.Graph) (int, error) {
		return graph.FusePatterns(g), nil
	}}

	// constantFolding evaluates all-constant subgraphs at compile time
	// through the executor itself and replaces them with OpConst nodes.
	constantFolding = pass{"constant-folding", graph.FoldConstants}

	// identityElimination removes structural no-ops (factor-1
	// upsamples, group-1 shuffles, zero pads, single-input concats,
	// rank-1 flattens).
	identityElimination = pass{"identity-elimination", func(g *graph.Graph) (int, error) {
		return graph.EliminateIdentity(g), nil
	}}

	// deadElimination removes nodes unreachable from any graph output,
	// keeping the graph input alive even when orphaned.
	deadElimination = pass{"dead-elimination", func(g *graph.Graph) (int, error) {
		before := len(g.Nodes)
		graph.EliminateDead(g)
		return before - len(g.Nodes), nil
	}}
)

// Lowering passes behind the verify gate. These are the void-style
// passes the framework lowering pipelines (Table II) and the CLIs
// compose directly — each call runs the underlying rewrite and re-proves
// the IR invariants, panicking on violation (passes are internal
// transformations, so a broken graph is a programming error at these
// call sites; use Optimize for error-returning runs).

// checked runs fn over g and panics with the verifier's diagnostics if
// the rewrite broke IR invariants.
func checked(name string, g *graph.Graph, fn func(*graph.Graph)) {
	fn(g)
	if diags := gate(g); len(diags) > 0 {
		panic((&VerifyError{Pass: name, Iteration: 1, Diags: diags}).Error())
	}
}

// FoldAndFuse is the deployment fusion of the paper's frameworks: it
// folds batch-norms into their producers' weights (graph.FoldBN, which
// perturbs numerics at float-reassociation level but is how a Conv→BN
// chain reaches the int8 kernels), then fuses the remaining activations
// into their producers (graph.FusePatterns, bit-exact). Prefer Optimize
// at O2 when the graph will be checked for bitwise equivalence.
func FoldAndFuse(g *graph.Graph) {
	checked("fold-and-fuse", g, func(g *graph.Graph) {
		graph.FoldBN(g)
		graph.FusePatterns(g)
	})
}

// EliminateDead removes nodes unreachable from any output.
func EliminateDead(g *graph.Graph) { checked("dead-elimination", g, graph.EliminateDead) }

// QuantizeINT8 applies per-tensor post-training INT8 quantization.
func QuantizeINT8(g *graph.Graph) { checked("quantize-int8", g, graph.QuantizeINT8) }

// QuantizeINT8PerChannel applies per-channel post-training INT8
// quantization.
func QuantizeINT8PerChannel(g *graph.Graph) {
	checked("quantize-int8-per-channel", g, graph.QuantizeINT8PerChannel)
}

// CastFP16 drops execution to half precision.
func CastFP16(g *graph.Graph) { checked("cast-fp16", g, graph.CastFP16) }
