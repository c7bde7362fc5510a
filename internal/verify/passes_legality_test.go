package verify_test

import (
	"math"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
	"edgebench/internal/verify"
)

func runGraph(t *testing.T, g *graph.Graph, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	out, err := (&graph.Executor{}).Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func maxAbsDiff(a, b *tensor.Tensor) float64 {
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i] - b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// TestPassLegalityTable runs every lowering pass — through its
// internal/opt wrapper where it has one, so a broken invariant panics
// with the rule ID — asserts the optimized graph verifies with zero
// diagnostics — not even warnings — and bounds the numeric deviation
// from the unoptimized output on a fixed input. Tolerances reflect each
// transformation's intrinsic error: weight folding at float
// reassociation, exact rewrites at zero, reduced precision at its
// quantization step, pruning at the damage a 5% weight cut can do to a
// softmax.
func TestPassLegalityTable(t *testing.T) {
	cases := []struct {
		name string
		pass func(*graph.Graph)
		tol  float64
	}{
		{"FoldBN", graph.FoldBN, 1e-4},
		{"FoldAndFuse", opt.FoldAndFuse, 1e-4},
		{"EliminateDead", opt.EliminateDead, 0},
		{"QuantizeINT8", opt.QuantizeINT8, 0.3},
		{"QuantizeINT8PerChannel", opt.QuantizeINT8PerChannel, 0.3},
		{"CastFP16", opt.CastFP16, 0.02},
		{"Prune", graph.Prune(0.05), 0.5},
	}
	in := tensor.New(3, 8, 8).Fill(0.3)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := cleanCNN(t, 42)
			ref := runGraph(t, g, in)

			og := g.Clone()
			c.pass(og)
			if diags := verify.CheckAll(og); len(diags) != 0 {
				t.Fatalf("%s left %d diagnostics: %v", c.name, len(diags), diags)
			}
			got := runGraph(t, og, in)
			if d := maxAbsDiff(ref, got); d > c.tol {
				t.Fatalf("%s changed output by %v, tolerance %v", c.name, d, c.tol)
			}
		})
	}
}

// TestFullPipelineLegality chains the standard static-deployment
// sequence through the gated internal/opt wrappers: fold and fuse,
// eliminate, quantize — the order framework lowering uses — and
// requires a clean final graph.
func TestFullPipelineLegality(t *testing.T) {
	g := cleanCNN(t, 43)
	opt.FoldAndFuse(g)
	opt.EliminateDead(g)
	opt.QuantizeINT8(g)
	if diags := verify.Check(g); len(diags) != 0 {
		t.Fatalf("pipeline left diagnostics: %v", diags)
	}
	if g.Nodes[len(g.Nodes)-1].DType != tensor.INT8 {
		t.Fatal("pipeline should end INT8")
	}
}
