package graph_test

import (
	"strings"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/refexec"
	"edgebench/internal/tensor"
)

// smallCNN builds a materialized conv-bn-relu-pool-dense network for
// functional tests.
func smallCNN(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("small", nn.Options{Materialize: true, Seed: seed}, 3, 8, 8)
	b.ConvBNReLU("block1", 4, 3, 1, 1)
	b.MaxPool("pool1", 2, 2, 0)
	b.Conv2D("conv2", 8, 3, 1, 1, true)
	b.ReLU("relu2")
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

func TestGraphValidate(t *testing.T) {
	g := smallCNN(t, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumOps() != len(g.Nodes)-1 {
		t.Fatalf("NumOps = %d, nodes = %d", g.NumOps(), len(g.Nodes))
	}
	if g.Params() == 0 {
		t.Fatal("expected parameters")
	}
}

func TestGraphModeString(t *testing.T) {
	if graph.Static.String() != "static" || graph.Dynamic.String() != "dynamic" {
		t.Fatal("Mode.String wrong")
	}
}

func TestFreezePreventsAdd(t *testing.T) {
	g := graph.New("frozen", 1, 4, 4)
	g.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("adding to frozen graph should panic")
		}
	}()
	g.Add(&graph.Node{Kind: graph.OpReLU})
}

func TestExecutorRunsAndIsNormalized(t *testing.T) {
	g := smallCNN(t, 2)
	in := tensor.New(3, 8, 8).Fill(0.5)
	var e graph.Executor
	out, err := e.Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.Shape{10}) {
		t.Fatalf("output shape = %v", out.Shape)
	}
	var sum float32
	for _, v := range out.Data {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("softmax output sums to %v", sum)
	}
}

// TestExecutorGEMMPathMatchesDirect: the executor lowers every
// convolution to a packed GEMM; each conv node's value must agree with
// the oracle's direct loop nest applied to the same input, within the
// conv row of the tolerance table.
func TestExecutorGEMMPathMatchesDirect(t *testing.T) {
	g := smallCNN(t, 3)
	in := tensor.New(3, 8, 8).Fill(0.25)
	vals := oracle(t, g, in)
	convs := 0
	for _, n := range g.Nodes {
		if n.Kind != graph.OpConv2D {
			continue
		}
		convs++
		gemm := engineOp(t, n, []*tensor.Tensor{vals[n.Inputs[0]]})
		if e, tol := refexec.Error(gemm, vals[n]), refexec.Tolerance(n); e > tol {
			t.Fatalf("%s: GEMM path is %.3g from the direct loop nest, tolerance %g", n, e, tol)
		}
	}
	if convs == 0 {
		t.Fatal("no convolutions compared")
	}
}

func TestExecutorRejectsWrongInput(t *testing.T) {
	g := smallCNN(t, 4)
	if _, err := (&graph.Executor{}).Run(g, tensor.New(1, 8, 8)); err == nil {
		t.Fatal("wrong input shape should error")
	}
}

func TestExecutorRejectsStructuralGraph(t *testing.T) {
	b := nn.NewBuilder("structural", nn.Options{}, 3, 8, 8)
	b.Conv2D("c", 4, 3, 1, 1, true)
	g := b.Build()
	_, err := (&graph.Executor{}).Run(g, tensor.New(3, 8, 8))
	if err == nil || !strings.Contains(err.Error(), graph.ErrNotMaterialized) {
		t.Fatalf("structural graph should refuse execution, got %v", err)
	}
}

func TestDynamicModeProducesSameResult(t *testing.T) {
	g1 := smallCNN(t, 5)
	g2 := g1.Clone()
	g2.Mode = graph.Dynamic
	in := tensor.New(3, 8, 8).Fill(0.1)
	a, err := (&graph.Executor{}).Run(g1, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&graph.Executor{}).Run(g2, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("dynamic mode changed numerics")
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	g := smallCNN(t, 6)
	cp := g.Clone()
	if err := cp.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mutating clone weights must not affect the original.
	for _, n := range cp.Nodes {
		if n.Weights != nil {
			n.Weights.Fill(0)
		}
	}
	nonzero := false
	for _, n := range g.Nodes {
		if n.Weights != nil && n.Weights.MaxAbs() > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("clone shares weight storage with original")
	}
	if cp.Params() != g.Params() {
		t.Fatal("clone params differ")
	}
}

func TestResidualBranching(t *testing.T) {
	b := nn.NewBuilder("res", nn.Options{Materialize: true, Seed: 7}, 4, 6, 6)
	trunk := b.Current()
	left := b.Conv2D("left", 4, 3, 1, 1, true)
	right := b.From(trunk).Conv2D("right", 4, 1, 1, 0, true)
	b.Add("join", left, right)
	b.ReLU("out")
	g := b.Build()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := (&graph.Executor{}).Run(g, tensor.New(4, 6, 6).Fill(1))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.Shape{4, 6, 6}) {
		t.Fatalf("residual output shape %v", out.Shape)
	}
}

func TestInferShapeConcatAndPad(t *testing.T) {
	b := nn.NewBuilder("cat", nn.Options{}, 2, 5, 5)
	in := b.Current()
	a := b.Conv2D("a", 3, 1, 1, 0, false)
	c := b.From(in).Conv2D("c", 5, 1, 1, 0, false)
	cat := b.Concat("cat", a, c)
	if !cat.OutShape.Equal(tensor.Shape{8, 5, 5}) {
		t.Fatalf("concat shape = %v", cat.OutShape)
	}
	p := b.Pad("pad", 2)
	if !p.OutShape.Equal(tensor.Shape{8, 9, 9}) {
		t.Fatalf("pad shape = %v", p.OutShape)
	}
}

func TestValidateCatchesShapeLie(t *testing.T) {
	g := graph.New("bad", 1, 4, 4)
	n := &graph.Node{Kind: graph.OpReLU, Inputs: []*graph.Node{g.Input}}
	g.Add(n)
	n.OutShape = tensor.Shape{9, 9, 9} // corrupt after add
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should catch wrong shape")
	}
}

func TestValidateCatchesArity(t *testing.T) {
	g := graph.New("bad-arity", 1, 4, 4)
	relu := g.Add(&graph.Node{Kind: graph.OpReLU, Inputs: []*graph.Node{g.Input}})
	relu.Inputs = append(relu.Inputs, g.Input)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should catch arity violation")
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := graph.OpInput; k <= graph.OpPad; k++ {
		if k.String() == "unknown" {
			t.Errorf("op %d missing a name", k)
		}
	}
	if graph.OpKind(999).String() != "unknown" {
		t.Error("unknown op should stringify as unknown")
	}
	if !graph.OpReLU.IsActivation() || graph.OpConv2D.IsActivation() {
		t.Error("IsActivation wrong")
	}
	if !graph.OpConv2D.HasWeights() || graph.OpAdd.HasWeights() {
		t.Error("HasWeights wrong")
	}
	// What each kind can absorb: a batch-norm affine only where the
	// executor has a fused FP32 epilogue, a folded batch-norm into any
	// linear op, an activation into those and Add.
	affine := map[graph.OpKind]bool{graph.OpConv2D: true, graph.OpDepthwiseConv2D: true, graph.OpDense: true}
	linear := map[graph.OpKind]bool{graph.OpConv2D: true, graph.OpDepthwiseConv2D: true, graph.OpConv3D: true, graph.OpDense: true}
	for k := graph.OpInput; k <= graph.OpConst; k++ {
		if k.AbsorbsAffine() != affine[k] || k.IsLinear() != linear[k] || k.AbsorbsActivation() != (linear[k] || k == graph.OpAdd) {
			t.Errorf("%s: AbsorbsAffine %v, IsLinear %v, AbsorbsActivation %v", k, k.AbsorbsAffine(), k.IsLinear(), k.AbsorbsActivation())
		}
	}
}
