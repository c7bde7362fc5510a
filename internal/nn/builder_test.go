package nn_test

import (
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

func TestBuilderShapes(t *testing.T) {
	b := nn.NewBuilder("t", nn.Options{}, 3, 32, 32)
	c := b.Conv2D("c1", 16, 3, 1, 1, false)
	if !c.OutShape.Equal(tensor.Shape{16, 32, 32}) {
		t.Fatalf("conv shape %v", c.OutShape)
	}
	p := b.MaxPool("p1", 2, 2, 0)
	if !p.OutShape.Equal(tensor.Shape{16, 16, 16}) {
		t.Fatalf("pool shape %v", p.OutShape)
	}
	d := b.DepthwiseConv2D("dw", 3, 2, 1, false)
	if !d.OutShape.Equal(tensor.Shape{16, 8, 8}) {
		t.Fatalf("dw shape %v", d.OutShape)
	}
	g := b.GlobalAvgPool("gap")
	if !g.OutShape.Equal(tensor.Shape{16}) {
		t.Fatalf("gap shape %v", g.OutShape)
	}
	fc := b.Dense("fc", 10, true)
	if !fc.OutShape.Equal(tensor.Shape{10}) {
		t.Fatalf("fc shape %v", fc.OutShape)
	}
	if err := b.Build().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDenseAutoFlattens(t *testing.T) {
	b := nn.NewBuilder("t", nn.Options{}, 2, 4, 4)
	fc := b.Dense("fc", 5, false)
	if fc.WShape[1] != 32 {
		t.Fatalf("dense input dim = %d, want 32", fc.WShape[1])
	}
}

func TestGroupedConvParams(t *testing.T) {
	b := nn.NewBuilder("t", nn.Options{}, 96, 27, 27)
	c := b.Conv2DG("c2", 256, 5, 1, 2, 2, true)
	// Grouped: weights are [256, 48, 5, 5].
	if c.ParamCount() != 256*48*5*5+256 {
		t.Fatalf("grouped params = %d", c.ParamCount())
	}
	if !c.OutShape.Equal(tensor.Shape{256, 27, 27}) {
		t.Fatalf("grouped out shape %v", c.OutShape)
	}
}

func TestGroupedConvPanicsOnBadGroups(t *testing.T) {
	b := nn.NewBuilder("t", nn.Options{}, 3, 8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible groups should panic")
		}
	}()
	b.Conv2DG("c", 4, 3, 1, 1, 2, false)
}

func TestGroupedConvExecutionMatchesBlockDiagonal(t *testing.T) {
	// A grouped conv equals two independent convs on channel halves.
	b := nn.NewBuilder("t", nn.Options{Materialize: true, Seed: 3}, 4, 6, 6)
	c := b.Conv2DG("g", 4, 3, 1, 1, 2, true)
	g := b.Build()
	in := tensor.New(4, 6, 6).Randomize(stats.NewRNG(99), 1)
	out, err := (&graph.Executor{}).Run(g, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Reference: split manually.
	for gi := 0; gi < 2; gi++ {
		gin := tensor.FromData(in.Data[gi*2*36:(gi+1)*2*36], 2, 6, 6)
		gw := tensor.FromData(c.Weights.Data[gi*2*2*9:(gi+1)*2*2*9], 2, 2, 3, 3)
		gb := c.Bias[gi*2 : (gi+1)*2]
		ref := tensor.Conv2D(gin, gw, gb, tensor.Conv2DSpec{Stride: 1, Pad: 1})
		for i := range ref.Data {
			got := out.Data[gi*2*36+i]
			if d := got - ref.Data[i]; d > 1e-5 || d < -1e-5 {
				t.Fatalf("group %d diverges at %d", gi, i)
			}
		}
	}
}

func TestSeparableConv(t *testing.T) {
	b := nn.NewBuilder("t", nn.Options{}, 8, 16, 16)
	pw := b.SeparableConv2D("sep", 32, 3, 1, 1)
	if !pw.OutShape.Equal(tensor.Shape{32, 16, 16}) {
		t.Fatalf("separable out %v", pw.OutShape)
	}
	g := b.Build()
	// dw + bn + relu + pw
	if g.NumOps() != 4 {
		t.Fatalf("NumOps = %d, want 4", g.NumOps())
	}
}

func TestConvBNReLUStructure(t *testing.T) {
	b := nn.NewBuilder("t", nn.Options{}, 3, 8, 8)
	out := b.ConvBNReLU("blk", 8, 3, 1, 1)
	if out.Kind != graph.OpReLU {
		t.Fatal("ConvBNReLU should end in ReLU")
	}
	g := b.Build()
	if g.NumOps() != 3 {
		t.Fatalf("NumOps = %d", g.NumOps())
	}
	// Conv before BN should have no bias.
	if g.Nodes[1].BiasLen != 0 {
		t.Fatal("conv before BN should be bias-free")
	}
}

func TestStructuralBuilderAllocatesNoWeights(t *testing.T) {
	b := nn.NewBuilder("t", nn.Options{}, 3, 224, 224)
	b.Conv2D("huge", 512, 3, 1, 1, true)
	g := b.Build()
	for _, n := range g.Nodes {
		if n.Weights != nil || n.Bias != nil || n.BN != nil {
			t.Fatal("structural build must not allocate parameter data")
		}
	}
	if g.Params() == 0 {
		t.Fatal("structural params must still be counted")
	}
}

func TestMaterializedBuilderIsDeterministic(t *testing.T) {
	build := func() *nn.Graph {
		b := nn.NewBuilder("t", nn.Options{Materialize: true, Seed: 42}, 3, 8, 8)
		b.ConvBNReLU("b", 4, 3, 1, 1)
		return b.Build()
	}
	g1, g2 := build(), build()
	w1 := g1.Nodes[1].Weights
	w2 := g2.Nodes[1].Weights
	for i := range w1.Data {
		if w1.Data[i] != w2.Data[i] {
			t.Fatal("same seed must produce identical weights")
		}
	}
}

func TestActivationVariants(t *testing.T) {
	b := nn.NewBuilder("t", nn.Options{}, 1, 4, 4)
	if b.ReLU6("r6").Kind != graph.OpReLU6 {
		t.Fatal("ReLU6 kind")
	}
	if n := b.LeakyReLU("lr", 0.1); n.Kind != graph.OpLeakyReLU || n.Attrs.Alpha != 0.1 {
		t.Fatal("LeakyReLU kind/alpha")
	}
	if b.Sigmoid("s").Kind != graph.OpSigmoid {
		t.Fatal("Sigmoid kind")
	}
	if b.Tanh("th").Kind != graph.OpTanh {
		t.Fatal("Tanh kind")
	}
	if b.AvgPool("ap", 2, 2, 0).Kind != graph.OpAvgPool2D {
		t.Fatal("AvgPool kind")
	}
}

func TestConv3DAndPool3D(t *testing.T) {
	b := nn.NewBuilder("t", nn.Options{}, 3, 12, 32, 32)
	c := b.Conv3D("c3", 8, 3, 1, 1, true)
	if !c.OutShape.Equal(tensor.Shape{8, 12, 32, 32}) {
		t.Fatalf("conv3d shape %v", c.OutShape)
	}
	p := b.MaxPool3D("p3", 2, 2)
	if !p.OutShape.Equal(tensor.Shape{8, 6, 16, 16}) {
		t.Fatalf("pool3d shape %v", p.OutShape)
	}
}
