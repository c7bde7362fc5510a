package graph_test

import (
	"strings"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/tensor"
)

// assertBitwiseEqual fails on the first float32 that differs — the
// pattern fuser's contract is bitwise identity, not tolerance.
func assertBitwiseEqual(t *testing.T, got, want *tensor.Tensor, what string) {
	t.Helper()
	if !got.Shape.Equal(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: out[%d] = %v, want %v (bitwise mismatch)", what, i, got.Data[i], want.Data[i])
		}
	}
}

func TestFusePatternsBitEquivalence(t *testing.T) {
	g := smallCNN(t, 21)
	in := tensor.New(3, 8, 8).Fill(-0.3)
	ref := run(t, g, in)

	fg := g.Clone()
	before := len(fg.Nodes)
	fused := graph.FusePatterns(fg)
	checkAfterPass(t, fg, "FusePatterns")
	if fused == 0 {
		t.Fatal("FusePatterns fused no chains in a Conv-BN-ReLU network")
	}
	if len(fg.Nodes) >= before {
		t.Fatalf("FusePatterns removed no nodes (%d -> %d)", before, len(fg.Nodes))
	}
	got := run(t, fg, in)
	assertBitwiseEqual(t, got, ref, "fused forward")

	// The conv that absorbed its BN must carry the affine epilogue —
	// weights untouched (unlike FoldBN, which rewrites them).
	var epi *graph.Node
	for _, n := range fg.Nodes {
		if n.Kind == graph.OpBatchNorm {
			t.Fatalf("BN node %s survived fusion", n)
		}
		if n.EpiChannels > 0 {
			epi = n
		}
	}
	if epi == nil {
		t.Fatal("no node carries an absorbed BN epilogue")
	}
	if epi.FusedBN {
		t.Fatalf("node %s has FusedBN set: the pattern fuser must not rewrite weights", epi)
	}
	if len(epi.EpiScale) != epi.EpiChannels || len(epi.EpiShift) != epi.EpiChannels {
		t.Fatalf("epilogue arrays %d/%d, want %d", len(epi.EpiScale), len(epi.EpiShift), epi.EpiChannels)
	}
	if epi.Activation == 0 {
		t.Fatalf("node %s absorbed the BN but not the following ReLU", epi)
	}
}

func TestFusePatternsCountsFusedDispatches(t *testing.T) {
	g := smallCNN(t, 22)
	in := tensor.New(3, 8, 8).Fill(0.4)
	graph.FusePatterns(g)
	if _, err := (&graph.Executor{}).Run(g, in); err != nil {
		t.Fatal(err)
	}
	i8, f32, fz := programCounts(t, g)
	if i8 != 0 {
		t.Fatalf("fp32 graph dispatched %d int8 kernels", i8)
	}
	if fz == 0 {
		t.Fatal("fused graph dispatched no fused kernels")
	}
	if f32 == 0 {
		t.Fatal("fused dispatches should still count in the conv/dense family")
	}
}

func TestFusePatternsSkipsMultiConsumerProducer(t *testing.T) {
	// conv feeds both a ReLU and a residual Add: absorbing either stage
	// would corrupt the Add's view of the conv output.
	b := nn.NewBuilder("skip", nn.Options{Materialize: true, Seed: 23}, 2, 6, 6)
	conv := b.Conv2D("conv", 2, 3, 1, 1, true)
	relu := b.ReLU("relu")
	b.Add("join", conv, relu)
	g := b.Build()
	in := tensor.New(2, 6, 6).Fill(-1)
	ref := run(t, g, in)
	graph.FusePatterns(g)
	checkAfterPass(t, g, "FusePatterns")
	if conv.Activation != 0 {
		t.Fatal("conv with two consumers must not absorb the activation")
	}
	got := run(t, g, in)
	assertBitwiseEqual(t, got, ref, "multi-consumer graph")
}

// TestFusePatternsAbsorbsBNIntoGroupedConv: the grouped kernel applies the
// epilogue's affine per group slice, so Conv2DG → BN → ReLU becomes one
// node, bit for bit the unfused graph.
func TestFusePatternsAbsorbsBNIntoGroupedConv(t *testing.T) {
	b := nn.NewBuilder("gbn", nn.Options{Materialize: true, Seed: 25}, 6, 9, 9)
	gconv := b.Conv2DG("gconv", 12, 3, 1, 1, 3, true)
	b.BatchNorm("bn")
	b.ReLU("relu")
	g := b.Build()
	in := seededInput(g.Input.OutShape, 8)
	ref := run(t, g, in)
	if fused := graph.FusePatterns(g); fused != 1 {
		t.Fatalf("FusePatterns fused %d chains, want 1", fused)
	}
	checkAfterPass(t, g, "FusePatterns")
	for _, n := range g.Nodes {
		if n != gconv && n != g.Input {
			t.Fatalf("node %s survived fusion", n)
		}
	}
	if gconv.EpiChannels != 12 || gconv.Activation != graph.OpReLU {
		t.Fatalf("grouped conv epilogue: %d channels, activation %v", gconv.EpiChannels, gconv.Activation)
	}
	assertBitwiseEqual(t, run(t, g, in), ref, "fused grouped conv")
}

func TestFusePatternsSkipsQuantizedBN(t *testing.T) {
	// An int8-dispatched conv has no affine stage in its requantize
	// epilogue, so the BN must stay a separate node; the activation can
	// still fuse (the int8 kernel applies it).
	b := nn.NewBuilder("qbn", nn.Options{Materialize: true, Seed: 24}, 3, 8, 8)
	b.Conv2D("conv", 4, 3, 1, 1, true)
	b.BatchNorm("bn")
	b.ReLU("relu")
	g := b.Build()
	graph.QuantizeINT8(g)
	fused := graph.FusePatterns(g)
	checkAfterPass(t, g, "FusePatterns after QuantizeINT8")
	bnSurvives := false
	for _, n := range g.Nodes {
		if n.Kind == graph.OpBatchNorm {
			bnSurvives = true
		}
		if n.QWeights != nil && n.EpiChannels > 0 {
			t.Fatalf("node %s carries both int8 codes and a BN epilogue", n)
		}
	}
	if !bnSurvives {
		t.Fatal("quantized conv absorbed its BN; the int8 epilogue cannot apply it")
	}
	_ = fused
}

func TestFusePatternsMACsInvariant(t *testing.T) {
	g := smallCNN(t, 25)
	before := g.TotalCost()
	graph.FusePatterns(g)
	after := g.TotalCost()
	if before.MACs != after.MACs {
		t.Fatalf("fusion changed MACs %v -> %v; MACs count contraction multiplies only", before.MACs, after.MACs)
	}
	// The absorbed BN's 2*elems FLOPs move onto the fused node's
	// epilogue, so total FLOPs are preserved too.
	if before.FLOPs != after.FLOPs {
		t.Fatalf("fusion changed FLOPs %v -> %v", before.FLOPs, after.FLOPs)
	}
	if before.MACs >= before.FLOPs {
		t.Fatalf("MACs %v should be below FLOPs %v (bias/BN/act are FLOPs, not MACs)", before.MACs, before.FLOPs)
	}
}

// constGraph builds input(4) + relu(c1 + c2): the c1+c2 and relu nodes
// are compile-time constant, the final add is not.
func constGraph(t *testing.T) (*graph.Graph, *graph.Node) {
	t.Helper()
	g := graph.New("consts", 4)
	mkConst := func(name string, vals []float32) *graph.Node {
		w := tensor.New(4)
		copy(w.Data, vals)
		return g.Append(&graph.Node{
			Kind:     graph.OpConst,
			Name:     name,
			WShape:   tensor.Shape{4},
			Weights:  w,
			OutShape: tensor.Shape{4},
		})
	}
	c1 := mkConst("c1", []float32{-4, -1, 1, 2})
	c2 := mkConst("c2", []float32{1, -1, 1, -4})
	sum := g.Append(&graph.Node{
		Kind:     graph.OpAdd,
		Name:     "sum",
		Inputs:   []*graph.Node{c1, c2},
		OutShape: tensor.Shape{4},
	})
	relu := g.Append(&graph.Node{
		Kind:     graph.OpReLU,
		Name:     "relu",
		Inputs:   []*graph.Node{sum},
		OutShape: tensor.Shape{4},
	})
	out := g.Append(&graph.Node{
		Kind:     graph.OpAdd,
		Name:     "out",
		Inputs:   []*graph.Node{g.Input, relu},
		OutShape: tensor.Shape{4},
	})
	g.Output = out
	return g, out
}

func TestFoldConstantsCascades(t *testing.T) {
	g, out := constGraph(t)
	folded, err := graph.FoldConstants(g)
	if err != nil {
		t.Fatal(err)
	}
	// One topological sweep folds sum and then relu-of-the-fold.
	if folded != 2 {
		t.Fatalf("folded %d nodes, want 2", folded)
	}
	fc := out.Inputs[1]
	if fc.Kind != graph.OpConst || !strings.HasSuffix(fc.Name, "_folded") {
		t.Fatalf("output's second input is %s, want a folded const", fc)
	}
	want := []float32{0, 0, 2, 0} // relu((-4+1), (-1-1), (1+1), (2-4))
	for i, v := range want {
		if fc.Weights.Data[i] != v {
			t.Fatalf("folded const[%d] = %v, want %v", i, fc.Weights.Data[i], v)
		}
	}
	// Dead elimination sweeps the orphaned source consts (and the
	// intermediate folded const) but keeps the graph input.
	before := len(g.Nodes)
	graph.EliminateDead(g)
	if removed := before - len(g.Nodes); removed != 3 {
		t.Fatalf("dead elimination removed %d nodes, want 3", removed)
	}
	checkAfterPass(t, g, "FoldConstants+EliminateDead")
	in := tensor.New(4).Fill(10)
	got := run(t, g, in)
	for i, v := range want {
		if got.Data[i] != 10+v {
			t.Fatalf("out[%d] = %v, want %v", i, got.Data[i], 10+v)
		}
	}
}

func TestFoldConstantsReportsEvalErrors(t *testing.T) {
	g := graph.New("badfold", 4)
	w3 := tensor.New(3)
	c1 := g.Append(&graph.Node{
		Kind: graph.OpConst, Name: "c1",
		WShape: tensor.Shape{3}, Weights: w3, OutShape: tensor.Shape{3},
	})
	w4 := tensor.New(4)
	c2 := g.Append(&graph.Node{
		Kind: graph.OpConst, Name: "c2",
		WShape: tensor.Shape{4}, Weights: w4, OutShape: tensor.Shape{4},
	})
	// Shape-inconsistent add (the adversarial input FoldConstants must
	// surface as an error, not a panic).
	bad := g.Append(&graph.Node{
		Kind:     graph.OpAdd,
		Name:     "bad",
		Inputs:   []*graph.Node{c1, c2},
		OutShape: tensor.Shape{4},
	})
	g.Output = bad
	if _, err := graph.FoldConstants(g); err == nil {
		t.Fatal("folding a shape-mismatched add should error")
	} else if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error %q does not name the offending node", err)
	}
}

func TestEliminateIdentity(t *testing.T) {
	b := nn.NewBuilder("ident", nn.Options{Materialize: true, Seed: 26}, 4, 6, 6)
	b.Upsample("up1", 1)  // factor-1 upsample: pure copy
	b.Shuffle("shuf1", 1) // group-1 shuffle: pure copy
	b.Pad("pad0", 0)      // zero pad: pure copy
	b.Conv2D("conv", 4, 3, 1, 1, true)
	g := b.Build()
	in := tensor.New(4, 6, 6).Fill(0.7)
	ref := run(t, g, in)
	removed := graph.EliminateIdentity(g)
	checkAfterPass(t, g, "EliminateIdentity")
	if removed != 3 {
		t.Fatalf("removed %d identity nodes, want 3", removed)
	}
	got := run(t, g, in)
	assertBitwiseEqual(t, got, ref, "identity-eliminated graph")

	// Real work must never be treated as identity.
	b2 := nn.NewBuilder("real", nn.Options{}, 4, 6, 6)
	b2.Upsample("up2", 2)
	b2.Shuffle("shuf2", 2)
	g2 := b2.Build()
	if n := graph.EliminateIdentity(g2); n != 0 {
		t.Fatalf("removed %d nodes from a graph with no identities", n)
	}
}

func TestEliminateDeadCountKeepsInput(t *testing.T) {
	g, _ := constGraph(t)
	// Point the output at the constant subgraph: the graph input becomes
	// unreferenced but must survive (a graph without its input node does
	// not verify).
	g.Output = g.Nodes[4] // the relu over consts
	before := len(g.Nodes)
	graph.EliminateDead(g)
	if removed := before - len(g.Nodes); removed != 1 { // only the input+relu add is dead
		t.Fatalf("removed %d nodes, want 1", removed)
	}
	foundInput := false
	for _, n := range g.Nodes {
		if n == g.Input {
			foundInput = true
		}
	}
	if !foundInput {
		t.Fatal("dead elimination removed the graph input")
	}
}

func TestOpConstExecution(t *testing.T) {
	g, _ := constGraph(t)
	in := tensor.New(4).Fill(1)
	got := run(t, g, in)
	want := []float32{1, 1, 3, 1} // 1 + relu(c1+c2)
	for i, v := range want {
		if got.Data[i] != v {
			t.Fatalf("out[%d] = %v, want %v", i, got.Data[i], v)
		}
	}
}
