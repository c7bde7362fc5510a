package graph_test

import (
	"math"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/tensor"
)

// prepackCNN builds a graph holding every packing class in one
// topology: a dense FP32 conv (packed at compile), a grouped conv (packed
// at compile, once per group — DESIGN §14), and an FP32 dense layer
// (never packed — matVecInto's 4-chain accumulation has no packed twin).
func prepackCNN(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("prepack", nn.Options{Materialize: true, Seed: seed}, 4, 8, 8)
	b.Conv2D("conv1", 8, 3, 1, 1, true)
	b.ReLU("relu1")
	b.Conv2DG("gconv", 8, 3, 1, 1, 2, true)
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

func findNode(t testing.TB, g *graph.Graph, name string) *graph.Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("graph has no node %q", name)
	return nil
}

// seededInput fills a deterministic but non-constant input so bitwise
// comparisons exercise real value diversity.
func seededInput(shape tensor.Shape, seed int) *tensor.Tensor {
	in := tensor.New(shape...)
	for i := range in.Data {
		in.Data[i] = float32(math.Sin(float64(i+37*seed)*0.7)) * 0.5
	}
	return in
}

// TestPrepackDispatchProbe: compile packs exactly the eligible nodes —
// conv1 and the grouped conv, not the FP32 dense layer — and the packed
// program gives the same bits on the arena or on fresh buffers.
func TestPrepackDispatchProbe(t *testing.T) {
	g := prepackCNN(t, 31)
	in := seededInput(g.Input.OutShape, 1)
	if n := packedSteps(t, g); n != 2 {
		t.Fatalf("compiled steps reading packed panels = %d, want 2 (conv1 and gconv)", n)
	}
	want, err := (&graph.Executor{}).Run(g.Clone(), in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"sequential", dynamicClone(g)}, {"pooled", g}} {
		t.Run(c.name, func(t *testing.T) {
			got, err := (&graph.Executor{}).Run(c.g, in)
			if err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, c.name, got, want)
		})
	}
}

// packedSteps reports how many of g's compiled steps run a kernel that
// reads panels packed at compile.
func packedSteps(t *testing.T, g *graph.Graph) int64 {
	t.Helper()
	p, err := graph.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	var packed int64
	for _, s := range p.Steps() {
		if s.Packed {
			packed++
		}
	}
	return packed
}

// TestPrepackInt8DispatchProbe: on a quantized graph compile packs int8
// panels for the conv and the dense head and none for the depthwise
// layer, and the graph runs two int8 kernels and one FP32 one.
func TestPrepackInt8DispatchProbe(t *testing.T) {
	in := tensor.New(3, 8, 8).Fill(0.25)
	g := mixedCNN(t, 33)
	graph.FusePatterns(g)
	graph.QuantizeINT8(g)
	ref := run(t, dynamicClone(g), in)
	if n := packedSteps(t, g); n != 2 {
		t.Fatalf("compiled steps reading packed panels = %d, want 2 (conv1+fc)", n)
	}
	requireBitEqual(t, "arena vs fresh int8", run(t, g, in), ref)
	if i8, f32, _ := programCounts(t, g); i8 != 2 || f32 != 1 {
		t.Fatalf("dispatch counts i8=%d f32=%d, want 2/1", i8, f32)
	}
}

// TestMobileNetV2PanelsAreTheStems: the benchmark's MobileNet-v2 at O2
// holds each pointwise convolution's weights once. Its FP32 program packs
// panels for the stem alone, the one K×K convolution (32 filters of 27
// taps, 3 584 bytes); every pointwise step reads the graph's Weights in
// place and packs nothing.
func TestMobileNetV2PanelsAreTheStems(t *testing.T) {
	p, err := graph.Compile(zooGraph(t, "MobileNet-v2", "O2"))
	if err != nil {
		t.Fatal(err)
	}
	total, pointwise := 0, 0
	for _, s := range p.Steps() {
		total += s.PanelBytes
		n := s.Node
		if n.Kind == graph.OpConv2D && tensor.Pointwise(n.WShape[2], n.WShape[3], n.Attrs.ConvSpec()) {
			pointwise++
			if s.Packed || s.PanelBytes != 0 {
				t.Errorf("pointwise %s packs %d panel bytes, want it to read its weights in place", n.Name, s.PanelBytes)
			}
		}
	}
	if total != 3584 || pointwise != 34 {
		t.Fatalf("program packs %d panel bytes over %d pointwise convs, want the stem's 3584 and 34", total, pointwise)
	}
}
