package graph_test

import (
	"math"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/tensor"
)

// prepackCNN builds a graph holding every FP32 weight reader in one
// topology: a K×K conv and a grouped conv (each group's filter slice a
// view of the node's Weights — DESIGN §14), both read in place by the
// channel-major kernel, and a dense layer (matVecInto's 4-chain
// accumulation); quantized, its conv and dense layer read their int8
// codes in place.
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

// TestPrepackDispatchProbe: an FP32 graph's conv1, grouped conv and
// dense layer, which read their weights in place, give the same bits on
// the arena or on fresh buffers.
func TestPrepackDispatchProbe(t *testing.T) {
	g := prepackCNN(t, 31)
	in := seededInput(g.Input.OutShape, 1)
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

// TestPrepackInt8DispatchProbe: on a quantized graph the conv and the
// dense head run int8 kernels on their codes in place and the depthwise
// layer the FP32 one, with the same bits on the arena or on fresh
// buffers.
func TestPrepackInt8DispatchProbe(t *testing.T) {
	in := tensor.New(3, 8, 8).Fill(0.25)
	g := mixedCNN(t, 33)
	graph.FusePatterns(g)
	graph.QuantizeINT8(g)
	ref := run(t, dynamicClone(g), in)
	requireBitEqual(t, "arena vs fresh int8", run(t, g, in), ref)
	if i8, f32, _ := programCounts(t, g); i8 != 2 || f32 != 1 {
		t.Fatalf("dispatch counts i8=%d f32=%d, want 2/1", i8, f32)
	}
}
