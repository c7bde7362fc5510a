package verify_test

import (
	"strings"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
	"edgebench/internal/verify"
)

// cleanCNN builds a materialized conv-bn-relu-pool-dense network with no
// dead branches, so a clean run must produce zero diagnostics.
func cleanCNN(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("clean", nn.Options{Materialize: true, Seed: seed}, 3, 8, 8)
	b.ConvBNReLU("block1", 4, 3, 1, 1)
	b.MaxPool("pool1", 2, 2, 0)
	b.Conv2D("conv2", 8, 3, 1, 1, true)
	b.ReLU("relu2")
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

func hasRule(diags []verify.Diagnostic, rule string) bool {
	for _, d := range diags {
		if d.Rule == rule {
			return true
		}
	}
	return false
}

func node(t *testing.T, g *graph.Graph, name string) *graph.Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("graph has no node %q", name)
	return nil
}

func TestCleanGraphHasZeroDiagnostics(t *testing.T) {
	g := cleanCNN(t, 1)
	if diags := verify.Check(g); len(diags) != 0 {
		t.Fatalf("clean graph produced %d diagnostics: %v", len(diags), diags)
	}
}

func TestNilGraph(t *testing.T) {
	diags := verify.Check(nil)
	if !hasRule(diags, "io") {
		t.Fatalf("nil graph: got %v, want io diagnostic", diags)
	}
	if verify.Err(diags) == nil {
		t.Fatal("nil graph must be an error")
	}
}

func TestDetectsCycle(t *testing.T) {
	g := cleanCNN(t, 2)
	// relu2 consumes conv2; closing conv2 -> relu2 makes a 2-cycle.
	conv2 := node(t, g, "conv2")
	relu2 := node(t, g, "relu2")
	conv2.Inputs = append(conv2.Inputs, relu2)
	diags := verify.Check(g)
	if !hasRule(diags, "acyclic") {
		t.Fatalf("cycle not detected: %v", diags)
	}
	if verify.Err(diags) == nil {
		t.Fatal("cycle must be an error")
	}
}

func TestDetectsShapeMismatch(t *testing.T) {
	g := cleanCNN(t, 3)
	node(t, g, "conv2").OutShape = tensor.Shape{1, 2, 3}
	diags := verify.Check(g)
	if !hasRule(diags, "shape") {
		t.Fatalf("shape mismatch not detected: %v", diags)
	}
}

func TestDetectsDanglingInput(t *testing.T) {
	g := cleanCNN(t, 4)
	foreign := &graph.Node{Kind: graph.OpReLU, Name: "foreign"}
	node(t, g, "relu2").Inputs = []*graph.Node{foreign}
	diags := verify.Check(g)
	if !hasRule(diags, "dangling-input") {
		t.Fatalf("dangling input not detected: %v", diags)
	}
}

func TestDetectsNilInput(t *testing.T) {
	g := cleanCNN(t, 5)
	node(t, g, "relu2").Inputs = []*graph.Node{nil}
	if diags := verify.Check(g); !hasRule(diags, "dangling-input") {
		t.Fatalf("nil input not detected: %v", diags)
	}
}

func TestDetectsMixedDTypeEdge(t *testing.T) {
	g := cleanCNN(t, 6)
	node(t, g, "conv2").DType = tensor.INT8
	diags := verify.Check(g)
	if !hasRule(diags, "dtype-uniform") {
		t.Fatalf("mixed-dtype edge not detected: %v", diags)
	}
	if !strings.Contains(verify.Err(diags).Error(), "dtype-uniform") {
		t.Fatalf("Err() should name the rule: %v", verify.Err(diags))
	}
}

func TestDetectsDuplicateID(t *testing.T) {
	g := cleanCNN(t, 7)
	node(t, g, "conv2").ID = node(t, g, "relu2").ID
	if diags := verify.Check(g); !hasRule(diags, "single-def") {
		t.Fatalf("duplicate ID not detected: %v", diags)
	}
}

func TestDetectsDuplicateNode(t *testing.T) {
	g := cleanCNN(t, 8)
	g.Nodes = append(g.Nodes, node(t, g, "relu2"))
	if diags := verify.Check(g); !hasRule(diags, "single-def") {
		t.Fatalf("duplicate node not detected: %v", diags)
	}
}

func TestDetectsTopoOrderViolation(t *testing.T) {
	g := cleanCNN(t, 9)
	last := len(g.Nodes) - 1
	g.Nodes[last-1], g.Nodes[last] = g.Nodes[last], g.Nodes[last-1]
	if diags := verify.Check(g); !hasRule(diags, "topo-order") {
		t.Fatalf("topological-order violation not detected: %v", diags)
	}
}

func TestDeadNodeIsWarningOnly(t *testing.T) {
	g := cleanCNN(t, 10)
	g.Append(&graph.Node{
		Kind: graph.OpReLU, Name: "orphan",
		Inputs:   []*graph.Node{g.Input},
		OutShape: g.Input.OutShape.Clone(),
	})
	diags := verify.Check(g)
	if !hasRule(diags, "dead-node") {
		t.Fatalf("dead node not reported: %v", diags)
	}
	if err := verify.Err(diags); err != nil {
		t.Fatalf("dead node should be a warning, got error: %v", err)
	}
	if len(verify.Errors(diags)) != 0 {
		t.Fatalf("Errors() should drop warnings: %v", verify.Errors(diags))
	}
}

func TestDetectsFrozenDynamic(t *testing.T) {
	g := cleanCNN(t, 11)
	g.Mode = graph.Dynamic
	g.Frozen = true
	if diags := verify.Check(g); !hasRule(diags, "frozen") {
		t.Fatalf("frozen dynamic graph not detected: %v", diags)
	}
}

func TestDetectsIllegalFusion(t *testing.T) {
	g := cleanCNN(t, 12)
	// An activation fused onto softmax: legal op, illegal carrier.
	node(t, g, "prob").Activation = graph.OpReLU
	if diags := verify.Check(g); !hasRule(diags, "fusion") {
		t.Fatalf("activation on softmax not detected: %v", diags)
	}

	g = cleanCNN(t, 13)
	// A non-activation op in the fused slot.
	node(t, g, "conv2").Activation = graph.OpConv2D
	if diags := verify.Check(g); !hasRule(diags, "fusion") {
		t.Fatalf("non-activation fusion not detected: %v", diags)
	}

	g = cleanCNN(t, 14)
	// FusedBN on a pool, which FoldBN never folds into.
	node(t, g, "pool1").FusedBN = true
	if diags := verify.Check(g); !hasRule(diags, "fusion") {
		t.Fatalf("FusedBN on pool not detected: %v", diags)
	}
}

func TestDetectsParamMismatch(t *testing.T) {
	g := cleanCNN(t, 15)
	conv2 := node(t, g, "conv2")
	conv2.Bias = conv2.Bias[:len(conv2.Bias)-1]
	if diags := verify.Check(g); !hasRule(diags, "params") {
		t.Fatalf("bias length mismatch not detected: %v", diags)
	}

	g = cleanCNN(t, 16)
	node(t, g, "conv2").Sparsity = 1.5
	if diags := verify.Check(g); !hasRule(diags, "params") {
		t.Fatalf("out-of-range sparsity not detected: %v", diags)
	}
}

// TestDetectsInt8CodesInLogicalLayout: a quantized 3x3 conv whose codes
// lie as its weights do, [Cout, Cin, KH, KW], not as the int8 kernel reads
// them (tensor.ConvCodeShape), is an Error, as is one whose codes miss
// the pad channel; the codes quantization leaves pass.
func TestDetectsInt8CodesInLogicalLayout(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codes func(w *tensor.Tensor) *tensor.QTensor
		bad   bool
	}{
		{"laid out", func(w *tensor.Tensor) *tensor.QTensor { return tensor.ConvCodes(tensor.QuantizeSymmetric(w)) }, false},
		{"logical", tensor.QuantizeSymmetric, true},
		{"no pad channel", func(w *tensor.Tensor) *tensor.QTensor {
			q := tensor.ConvCodes(tensor.QuantizeSymmetric(w))
			q.Shape[3]--
			q.Data = q.Data[:q.Shape.NumElems()]
			return q
		}, true},
	} {
		for _, name := range []string{"block1_conv", "conv2"} {
			g := cleanCNN(t, 22)
			n := node(t, g, name)
			n.QWeights = tc.codes(n.Weights)
			if got := verify.Errors(verify.Check(g)); hasRule(got, "params") != tc.bad {
				t.Errorf("%s codes on %s (weights %v, codes %v): errors %v", tc.name, name, n.WShape, n.QWeights.Shape, got)
			}
		}
	}
}

func TestDetectsBrokenIO(t *testing.T) {
	g := cleanCNN(t, 17)
	g.Output = &graph.Node{Kind: graph.OpReLU, Name: "foreign_out"}
	if diags := verify.Check(g); !hasRule(diags, "io") {
		t.Fatalf("foreign output not detected: %v", diags)
	}

	g = cleanCNN(t, 18)
	g.Input = nil
	if diags := verify.Check(g); !hasRule(diags, "io") {
		t.Fatalf("missing input not detected: %v", diags)
	}
}

func TestErrTruncatesLongLists(t *testing.T) {
	g := cleanCNN(t, 19)
	for _, n := range g.Nodes {
		n.Sparsity = -1 // one params error per node
	}
	err := verify.Err(verify.Check(g))
	if err == nil {
		t.Fatal("expected an error")
	}
	if !strings.Contains(err.Error(), "more") {
		t.Fatalf("long diagnostic lists should truncate: %v", err)
	}
}

func TestCheckedPassesCleanPass(t *testing.T) {
	g := cleanCNN(t, 21)
	opt.FoldAndFuse(g) // must not panic
}

func TestPipelineVerifiesBetweenPasses(t *testing.T) {
	g := cleanCNN(t, 22)
	opt.FoldAndFuse(g)
	opt.EliminateDead(g)
	if diags := verify.Check(g); len(diags) != 0 {
		t.Fatalf("pipeline left diagnostics: %v", diags)
	}
}
