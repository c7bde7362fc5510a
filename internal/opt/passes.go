package opt

import (
	"fmt"

	"edgebench/internal/graph"
)

// Built-in pass constructors. Each wraps a count-returning rewrite from
// internal/graph; the manager supplies verification, fixpoint
// iteration, and reporting.

// PatternFusion fuses compute→BatchNorm→activation chains into single
// fused-kernel nodes: the BN becomes a runtime per-channel affine
// epilogue (bitwise identical to the separate node — unlike FoldBN,
// nothing rewrites the weights) and the activation becomes the node's
// fused Activation.
func PatternFusion() Pass {
	return NewPass("pattern-fusion", func(g *graph.Graph) (int, error) {
		return graph.FusePatterns(g), nil
	})
}

// ConstantFolding evaluates all-constant subgraphs at compile time
// through the executor itself and replaces them with OpConst nodes.
func ConstantFolding() Pass {
	return NewPass("constant-folding", graph.FoldConstants)
}

// IdentityElimination removes structural no-ops (factor-1 upsamples,
// group-1 shuffles, zero pads, single-input concats, rank-1 flattens).
func IdentityElimination() Pass {
	return NewPass("identity-elimination", func(g *graph.Graph) (int, error) {
		return graph.EliminateIdentity(g), nil
	})
}

// DeadElimination removes nodes unreachable from any graph output,
// keeping the graph input alive even when orphaned.
func DeadElimination() Pass {
	return NewPass("dead-elimination", func(g *graph.Graph) (int, error) {
		before := len(g.Nodes)
		graph.EliminateDead(g)
		return before - len(g.Nodes), nil
	})
}

// Legacy lowering passes, re-exported behind the verify gate. These are
// the void-style passes the framework lowering pipelines (Table II) and
// the CLIs compose directly — each call runs the underlying rewrite and
// re-proves the IR invariants, panicking on violation (passes are
// internal transformations, so a broken graph is a programming error at
// these call sites; use a PassManager for error-returning runs).

// checked runs fn over g and panics with the verifier's diagnostics if
// the rewrite broke IR invariants.
func checked(name string, g *graph.Graph, fn func(*graph.Graph)) {
	fn(g)
	if diags := gate(g); len(diags) > 0 {
		panic((&VerifyError{Pass: name, Iteration: 1, Diags: diags}).Error())
	}
}

// FoldBN folds batch-norms into producer weights (perturbs numerics;
// prefer PatternFusion's bit-exact epilogue absorption when the graph
// will be checked for equivalence).
func FoldBN(g *graph.Graph) { checked("fold-bn", g, graph.FoldBN) }

// FuseActivations merges activation nodes into their producers.
func FuseActivations(g *graph.Graph) { checked("fuse-activations", g, graph.FuseActivations) }

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

// Prune returns a magnitude-pruning pass at the given fraction.
func Prune(fraction float64) func(*graph.Graph) {
	return func(g *graph.Graph) {
		checked(fmt.Sprintf("prune-%.2f", fraction), g, graph.Prune(fraction))
	}
}

// FreezeGraph marks the graph deployment-ready.
func FreezeGraph(g *graph.Graph) { checked("freeze", g, graph.FreezeGraph) }
