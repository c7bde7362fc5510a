package graph_test

import (
	"math"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/refexec"
	"edgebench/internal/tensor"
)

// oracle returns every node's value of g on in from the reference
// interpreter.
func oracle(t testing.TB, g *graph.Graph, in *tensor.Tensor) map[*graph.Node]*tensor.Tensor {
	t.Helper()
	vals, err := refexec.Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// engineAt returns the engine's value of node n of g on in: g cloned
// with n as its output and run on a fresh executor, so n's value comes
// from the same schedule, kernels and (on a static graph) arena a
// normal run uses.
func engineAt(t testing.TB, g *graph.Graph, n *graph.Node, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	c := g.Clone()
	for i, m := range g.Nodes {
		if m == n {
			c.Output = c.Nodes[i]
		}
	}
	out, err := (&graph.Executor{}).Run(c, in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// engineOp runs node n alone on the engine, on operand values ins: a
// graph whose input is the first operand and whose other operands are
// constants.
func engineOp(t testing.TB, n *graph.Node, ins []*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	g := graph.New(n.Name, ins[0].Shape...)
	args := []*graph.Node{g.Input}
	for _, v := range ins[1:] {
		args = append(args, g.Append(&graph.Node{Kind: graph.OpConst, WShape: v.Shape, Weights: v, OutShape: v.Shape}))
	}
	op := *n
	op.Inputs = args
	g.Output = g.Append(&op)
	out, err := (&graph.Executor{}).Run(g, ins[0])
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkOps evaluates every non-input node of g on the engine, on the
// oracle's values of its operands, and fails when the engine's value is
// outside the node's refexec.Tolerance of the oracle's. It returns the
// largest error it saw per op kind.
func checkOps(t *testing.T, g *graph.Graph, vals map[*graph.Node]*tensor.Tensor) map[graph.OpKind]float64 {
	t.Helper()
	worst := map[graph.OpKind]float64{}
	for _, n := range g.Nodes {
		if n.Kind == graph.OpInput || n.Kind == graph.OpConst {
			continue
		}
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for i, src := range n.Inputs {
			ins[i] = vals[src]
		}
		e := refexec.Error(engineOp(t, n, ins), vals[n])
		if tol := refexec.Tolerance(n); e > tol {
			t.Errorf("%s: engine is %.3g from the oracle, tolerance %g", n, e, tol)
		}
		worst[n.Kind] = math.Max(worst[n.Kind], e)
	}
	return worst
}

// TestZooEngineMatchesOracle runs the zoo's models under the compute
// budget, as built (O0), on the reference interpreter and checks the
// engine against it op by op, within the tolerance table. It logs the
// largest per-op error and the largest difference of the engine's
// output from the oracle's (the error the ops accumulate over a whole
// forward).
func TestZooEngineMatchesOracle(t *testing.T) {
	ran := 0
	for _, spec := range model.AllWithExtensions() {
		if spec.GFLOPs() > zooBudgetGF {
			continue
		}
		ran++
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Build(nn.Options{Materialize: true, Seed: 99})
			in := seededInput(g.Input.OutShape, 5)
			vals := oracle(t, g, in)
			worst := checkOps(t, g, vals)
			out, err := (&graph.Executor{}).Run(g, in)
			if err != nil {
				t.Fatal(err)
			}
			var outDiff float64
			for i, v := range vals[g.Output].Data {
				outDiff = math.Max(outDiff, math.Abs(float64(out.Data[i])-float64(v)))
			}
			if outDiff > 1e-5 {
				t.Errorf("engine output is %.3g from the oracle's", outDiff)
			}
			t.Logf("per-op error (u·max|y|) %v; output max |engine − oracle| %.3g", worst, outDiff)
		})
	}
	if ran == 0 {
		t.Fatal("compute budget excluded every zoo model")
	}
}
