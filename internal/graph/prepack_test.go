package graph_test

import (
	"math"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
)

// prepackCNN builds a graph holding every FP32 weight reader in one
// topology: a K×K conv and a grouped conv (each group's filter slice a
// view of the node's Weights — DESIGN §14), both read in place by the
// channel-major kernel, and a dense layer (matVecInto's 4-chain
// accumulation); quantized, its conv and dense layer pack int8 panels.
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

// TestPrepackDispatchProbe: compile packs nothing for an FP32 graph —
// conv1, the grouped conv and the dense layer all read their weights in
// place — and the program gives the same bits on the arena or on fresh
// buffers.
func TestPrepackDispatchProbe(t *testing.T) {
	g := prepackCNN(t, 31)
	in := seededInput(g.Input.OutShape, 1)
	if n := packedSteps(t, g); n != 0 {
		t.Fatalf("compiled steps reading packed panels = %d, want 0", n)
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

// TestMobileNetV2PanelsAreTheStems: no FP32 program packs a byte. Every
// zoo model under the compute budget, the benchmark's MobileNet-v2 (its
// stem included) and AlexNet's conv trunk (its grouped K×K convs; the
// classifier's 400 MB of weights hold no convolution) compile at O2 FP32
// to steps of 0 panel bytes: every FP32 conv, grouped or not, reads its
// node's Weights in place.
func TestMobileNetV2PanelsAreTheStems(t *testing.T) {
	graphs := map[string]*graph.Graph{"MobileNet-v2": zooGraph(t, "MobileNet-v2", "O2"), "AlexNet trunk": alexNetTrunk(t)}
	for _, spec := range model.AllWithExtensions() {
		if spec.GFLOPs() <= zooBudgetGF {
			graphs[spec.Name] = zooGraph(t, spec.Name, "O2")
		}
	}
	convs, grouped := 0, 0
	for name, g := range graphs {
		p, err := graph.Compile(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, s := range p.Steps() {
			if s.Packed || s.PanelBytes != 0 {
				t.Errorf("%s: %s packs %d panel bytes, want 0", name, s.Node.Name, s.PanelBytes)
			}
			if n := s.Node; n.Kind == graph.OpConv2D {
				convs++
				if n.Attrs.GroupCount() > 1 && n.WShape[2]*n.WShape[3] > 1 {
					grouped++
				}
			}
		}
	}
	if len(graphs) < 3 || convs < 35 || grouped < 3 {
		t.Fatalf("%d programs with %d convs, %d of them grouped K×K: want the zoo, MobileNet-v2 and AlexNet's three", len(graphs), convs, grouped)
	}
}

// alexNetTrunk is model.AlexNetTrunk through the O2 pipeline.
func alexNetTrunk(t *testing.T) *graph.Graph {
	t.Helper()
	g := model.AlexNetTrunk(nn.Options{Materialize: true, Seed: 7})
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		t.Fatal(err)
	}
	return g
}
