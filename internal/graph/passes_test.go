package graph_test

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
	"edgebench/internal/verify"
)

// checkAfterPass asserts the graph verifies clean after a pass — the
// internal/opt gate's contract, usable mid-test without the panic.
func checkAfterPass(t *testing.T, g *graph.Graph, pass string) {
	t.Helper()
	if err := verify.Err(verify.Check(g)); err != nil {
		t.Fatalf("pass %s broke invariants: %v", pass, err)
	}
}

func run(t *testing.T, g *graph.Graph, in *tensor.Tensor) *tensor.Tensor {
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

func TestFoldBNPreservesSemantics(t *testing.T) {
	g := smallCNN(t, 10)
	in := tensor.New(3, 8, 8).Fill(0.3)
	ref := run(t, g, in)

	opt := g.Clone()
	before := len(opt.Nodes)
	graph.FoldBN(opt)
	checkAfterPass(t, opt, "FoldBN")
	if len(opt.Nodes) != before-1 {
		t.Fatalf("FoldBN removed %d nodes, want 1", before-len(opt.Nodes))
	}
	got := run(t, opt, in)
	if d := maxAbsDiff(ref, got); d > 1e-4 {
		t.Fatalf("FoldBN changed output by %v", d)
	}
	// The conv must now carry a bias and the fused flag.
	found := false
	for _, n := range opt.Nodes {
		if n.FusedBN {
			found = true
			if n.BiasLen == 0 {
				t.Fatal("folded conv should have bias")
			}
		}
		if n.Kind == graph.OpBatchNorm {
			t.Fatal("BN node should be gone")
		}
	}
	if !found {
		t.Fatal("no node marked FusedBN")
	}
}

// TestFoldBNFanOut: on conv → bn1 → {bn2, add(bn1, bn2)}, folding bn1
// gives the conv bn1's two readers, so bn2 must stay a node — folding it
// too would make add read bn2(bn1(conv)) twice.
func TestFoldBNFanOut(t *testing.T) {
	b := nn.NewBuilder("fanout", nn.Options{Materialize: true, Seed: 18}, 3, 8, 8)
	b.Conv2D("conv", 4, 3, 1, 1, true)
	bn1 := b.BatchNorm("bn1")
	bn2 := b.BatchNorm("bn2")
	b.Add("add", bn1, bn2)
	g := b.Build()
	in := seededInput(g.Input.OutShape, 3)
	ref := run(t, g, in)

	graph.FoldBN(g)
	checkAfterPass(t, g, "FoldBN")
	if !slices.Contains(g.Nodes, bn2) {
		t.Fatal("FoldBN folded bn2 into a conv that add also reads")
	}
	if len(g.Nodes) != 4 {
		t.Fatalf("FoldBN left %d nodes, want 4 (input, conv, bn2, add)", len(g.Nodes))
	}
	if d := maxAbsDiff(ref, run(t, g, in)); d > 1e-4 {
		t.Fatalf("FoldBN changed output by %v", d)
	}
}

func TestFusePatternsAfterFoldBN(t *testing.T) {
	g := smallCNN(t, 11)
	in := tensor.New(3, 8, 8).Fill(-0.2)
	ref := run(t, g, in)

	opt := g.Clone()
	graph.FoldBN(opt)
	before := len(opt.Nodes)
	graph.FusePatterns(opt)
	checkAfterPass(t, opt, "FusePatterns")
	if len(opt.Nodes) >= before {
		t.Fatal("FusePatterns removed no nodes")
	}
	got := run(t, opt, in)
	if d := maxAbsDiff(ref, got); d > 1e-4 {
		t.Fatalf("fusion changed output by %v", d)
	}
	fused := 0
	for _, n := range opt.Nodes {
		if n.Activation != 0 {
			fused++
		}
	}
	if fused == 0 {
		t.Fatal("no node carries a fused activation")
	}
}

func TestFuseSkipsMultiConsumerProducer(t *testing.T) {
	// conv output feeds both a ReLU and a residual Add: fusing the ReLU
	// into the conv would corrupt the Add input, so the pass must skip it.
	b := nn.NewBuilder("skip", nn.Options{Materialize: true, Seed: 12}, 2, 6, 6)
	conv := b.Conv2D("conv", 2, 3, 1, 1, true)
	relu := b.ReLU("relu")
	b.Add("join", conv, relu)
	g := b.Build()
	in := tensor.New(2, 6, 6).Fill(-1)
	ref := run(t, g, in)
	graph.FusePatterns(g)
	checkAfterPass(t, g, "FusePatterns")
	got := run(t, g, in)
	if d := maxAbsDiff(ref, got); d != 0 {
		t.Fatalf("fusion with shared producer changed output by %v", d)
	}
	if g.Nodes[1].Activation != 0 {
		t.Fatal("conv with two consumers must not absorb the activation")
	}
}

func TestEliminateDead(t *testing.T) {
	b := nn.NewBuilder("dead", nn.Options{Materialize: true, Seed: 13}, 2, 4, 4)
	input := b.Current()
	live := b.Conv2D("live", 2, 3, 1, 1, true)
	b.From(input).Conv2D("dead_branch", 4, 3, 1, 1, true)
	g := b.From(live).Build()
	if g.Output != live {
		t.Fatal("output should be the live conv")
	}
	before := len(g.Nodes)
	graph.EliminateDead(g)
	checkAfterPass(t, g, "EliminateDead")
	if len(g.Nodes) != before-1 {
		t.Fatalf("dead elimination removed %d, want 1", before-len(g.Nodes))
	}
}

func TestQuantizeINT8(t *testing.T) {
	g := smallCNN(t, 14)
	in := tensor.New(3, 8, 8).Fill(0.2)
	ref := run(t, g, in)
	graph.QuantizeINT8(g)
	checkAfterPass(t, g, "QuantizeINT8")
	for _, n := range g.Nodes {
		if n.DType != tensor.INT8 {
			t.Fatalf("node %s dtype = %v", n, n.DType)
		}
	}
	got := run(t, g, in)
	// Quantization introduces bounded error but must keep outputs close
	// (small network, well-scaled weights).
	if d := maxAbsDiff(ref, got); d > 0.2 {
		t.Fatalf("int8 output error too large: %v", d)
	}
}

func TestCastFP16(t *testing.T) {
	g := smallCNN(t, 15)
	in := tensor.New(3, 8, 8).Fill(0.2)
	ref := run(t, g, in)
	graph.CastFP16(g)
	checkAfterPass(t, g, "CastFP16")
	for _, n := range g.Nodes {
		if n.DType != tensor.FP16 {
			t.Fatalf("node %s dtype = %v", n, n.DType)
		}
	}
	got := run(t, g, in)
	if d := maxAbsDiff(ref, got); d > 1e-2 {
		t.Fatalf("fp16 output error too large: %v", d)
	}
}

func TestPrunePass(t *testing.T) {
	g := smallCNN(t, 16)
	graph.Prune(0.5)(g)
	checkAfterPass(t, g, "Prune")
	checked := 0
	for _, n := range g.Nodes {
		if n.Kind == graph.OpConv2D || n.Kind == graph.OpDense {
			if n.Sparsity < 0.4 {
				t.Fatalf("node %s sparsity %v after 50%% prune", n, n.Sparsity)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no prunable nodes found")
	}
}

func TestPruneStructuralGraph(t *testing.T) {
	b := nn.NewBuilder("structural", nn.Options{}, 3, 8, 8)
	b.Conv2D("c", 4, 3, 1, 1, true)
	g := b.Build()
	graph.Prune(0.7)(g)
	if g.Nodes[1].Sparsity != 0.7 {
		t.Fatalf("structural sparsity = %v, want 0.7", g.Nodes[1].Sparsity)
	}
}

// TestPipelineComposes runs the static lowering sequence — fold, fuse,
// eliminate, freeze — and requires the frozen result to compute the
// same function.
func TestPipelineComposes(t *testing.T) {
	g := smallCNN(t, 17)
	in := tensor.New(3, 8, 8).Fill(0.15)
	ref := run(t, g, in)
	graph.FoldBN(g)
	graph.FusePatterns(g)
	graph.EliminateDead(g)
	g.Freeze()
	got := run(t, g, in)
	if d := maxAbsDiff(ref, got); d > 1e-4 {
		t.Fatalf("pipeline changed output by %v", d)
	}
}

// Property: for random small CNN seeds, FoldBN+FusePatterns is semantics
// preserving and strictly reduces op count.
func TestOptimizationEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := smallCNN(t, seed)
		in := tensor.New(3, 8, 8).Randomize(stats.NewRNG(seed), 1)
		ref, err := (&graph.Executor{}).Run(g, in.Clone())
		if err != nil {
			return false
		}
		opt := g.Clone()
		nBefore := opt.NumOps()
		graph.FoldBN(opt)
		graph.FusePatterns(opt)
		if opt.NumOps() >= nBefore {
			return false
		}
		got, err := (&graph.Executor{}).Run(opt, in.Clone())
		if err != nil {
			return false
		}
		return maxAbsDiff(ref, got) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCostAccounting(t *testing.T) {
	b := nn.NewBuilder("cost", nn.Options{}, 3, 8, 8)
	conv := b.Conv2D("conv", 16, 3, 1, 1, true)
	g := b.Build()
	c := graph.NodeCost(conv)
	// MACs: 3*3*3 per filter position x 16*8*8 outputs, plus bias adds.
	wantMACs := float64(3*3*3*16*8*8) + float64(16*8*8)
	if c.FLOPs != wantMACs {
		t.Fatalf("conv FLOPs = %v, want %v", c.FLOPs, wantMACs)
	}
	if c.WeightBytes != float64((3*3*3*16+16)*4) {
		t.Fatalf("weight bytes = %v", c.WeightBytes)
	}
	if g.FLOPs() != c.FLOPs {
		t.Fatal("graph total should equal single conv cost")
	}
}

func TestCostDTypeShrinksBytes(t *testing.T) {
	b := nn.NewBuilder("dtype", nn.Options{}, 3, 8, 8)
	conv := b.Conv2D("conv", 4, 3, 1, 1, false)
	_ = b.Build()
	fp32 := graph.NodeCost(conv).Bytes()
	conv.DType = tensor.INT8
	int8b := graph.NodeCost(conv).Bytes()
	if int8b*3.9 > fp32 {
		t.Fatalf("int8 bytes %v not ~4x smaller than %v", int8b, fp32)
	}
}

func TestPeakActivationBytes(t *testing.T) {
	b := nn.NewBuilder("peak", nn.Options{}, 4, 16, 16)
	b.Conv2D("c1", 8, 3, 1, 1, false) // doubles activation volume
	b.MaxPool("p1", 2, 2, 0)          // quarters it
	g := b.Build()
	peak := g.PeakActivationBytes()
	// Peak is while conv output (8*16*16) and input (4*16*16) coexist.
	want := float64((4*16*16 + 8*16*16) * 4)
	if peak != want {
		t.Fatalf("peak = %v, want %v", peak, want)
	}
}

// TestLegacyFusionKeepsRootValues: a producer that is itself a graph root
// (an SSD/YOLO head marked as an extra output) has its own value observed,
// so neither FoldBN nor FusePatterns may rewrite it, single consumer or
// not, whether a batch-norm or an activation follows it.
func TestLegacyFusionKeepsRootValues(t *testing.T) {
	fuse := func(g *graph.Graph) { graph.FusePatterns(g) }
	for _, c := range []struct {
		name string
		bn   bool
		pass func(*graph.Graph)
	}{
		{"FoldBN", true, graph.FoldBN},
		{"FusePatterns/act", false, fuse},
		{"FusePatterns/bn", true, fuse},
	} {
		b := nn.NewBuilder("head", nn.Options{Materialize: true, Seed: 13}, 3, 8, 8)
		b.MarkOutput(b.Conv2D("conv", 4, 3, 1, 1, true))
		if c.bn {
			b.BatchNorm("bn")
		}
		b.ReLU("relu")
		g := b.Build()
		in := seededInput(g.Input.OutShape, 6)
		values := func() (head, out *tensor.Tensor) {
			return engineAt(t, g, g.Extra[0], in), engineAt(t, g, g.Output, in)
		}
		wantHead, wantOut := values()
		before := len(g.Nodes)
		c.pass(g)
		checkAfterPass(t, g, c.name)
		if len(g.Nodes) != before {
			t.Errorf("%s rewrote a producer that is a graph root (%d nodes, was %d)", c.name, len(g.Nodes), before)
		}
		gotHead, gotOut := values()
		requireBitEqual(t, c.name+": extra output", gotHead, wantHead)
		requireBitEqual(t, c.name+": output", gotOut, wantOut)
	}
}
