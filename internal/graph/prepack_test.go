package graph_test

import (
	"math"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/tensor"
)

// prepackCNN builds a graph holding every pre-pack eligibility class in
// one topology: a dense FP32 conv (packed), a grouped conv (skipped —
// the GEMM lowering only covers ungrouped convs), and an FP32 dense
// layer (skipped — matVecInto's 4-chain accumulation has no packed
// twin).
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

// TestPrepackDispatchProbe: PrepackWeights packs exactly the eligible
// nodes, executing a packed graph is bitwise identical to the unpacked
// GEMM lowering pooled or not, and the compiled steps show the packed
// node bound to the prepacked kernel.
func TestPrepackDispatchProbe(t *testing.T) {
	g := prepackCNN(t, 31)
	in := seededInput(g.Input.OutShape, 1)

	// Reference BEFORE packing: the unpacked GEMM lowering the packed
	// kernel's bitwise contract is against.
	want, err := (&graph.Executor{}).Run(g, in)
	if err != nil {
		t.Fatal(err)
	}

	if n := graph.PrepackWeights(g); n != 1 {
		t.Fatalf("PrepackWeights packed %d nodes, want 1 (conv1 only)", n)
	}
	if findNode(t, g, "conv1").Packed == nil {
		t.Fatal("conv1 not packed")
	}
	if p := findNode(t, g, "gconv"); p.Packed != nil || p.PackedQ != nil {
		t.Fatal("grouped conv must not be packed")
	}
	if p := findNode(t, g, "fc"); p.Packed != nil || p.PackedQ != nil {
		t.Fatal("FP32 dense must not be packed")
	}
	// Idempotent: a second sweep finds nothing to do (the opt pass runs
	// inside a fixpoint loop and must not report perpetual rewrites).
	if n := graph.PrepackWeights(g); n != 0 {
		t.Fatalf("second PrepackWeights repacked %d nodes, want 0", n)
	}

	modes := []struct {
		name string
		mk   func() *graph.Executor
	}{
		{"sequential", func() *graph.Executor { return &graph.Executor{} }},
		{"pooled", func() *graph.Executor { return &graph.Executor{Pooled: true} }},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			e := mode.mk()
			got, err := e.Run(g, in)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("out[%d] = %v, want %v (bitwise)", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
	if n := packedSteps(t, g); n != 1 {
		t.Fatalf("compiled steps reading packed panels = %d, want 1", n)
	}
}

// packedSteps reports how many of g's compiled steps run a kernel that
// reads ahead-of-time packed panels.
func packedSteps(t *testing.T, g *graph.Graph) int64 {
	t.Helper()
	_, _, _, packed, err := graph.KernelCounts(g)
	if err != nil {
		t.Fatal(err)
	}
	return packed
}

// TestPrepackInt8DispatchProbe: on a quantized graph the pre-pack pass
// caches int8 panels for the conv and the dense head, execution stays
// bitwise identical to the unpacked QGEMM path (integer accumulation is
// order-independent), and both nodes compile to prepacked kernels.
func TestPrepackInt8DispatchProbe(t *testing.T) {
	in := tensor.New(3, 8, 8).Fill(0.25)
	g := mixedCNN(t, 33)
	graph.FuseActivations(g)
	graph.QuantizeINT8(g)
	ref := run(t, g, in)

	if n := graph.PrepackWeights(g); n != 2 {
		t.Fatalf("PrepackWeights packed %d nodes, want 2 (conv1+fc)", n)
	}
	if findNode(t, g, "conv1").PackedQ == nil || findNode(t, g, "fc").PackedQ == nil {
		t.Fatal("quantized conv1/fc must carry PackedQ panels")
	}
	if findNode(t, g, "dw").PackedQ != nil {
		t.Fatal("depthwise conv must not be packed")
	}

	e := &graph.Executor{}
	got, err := e.Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if got.Data[i] != ref.Data[i] {
			t.Fatalf("out[%d] = %v, want %v (bitwise vs unpacked int8)", i, got.Data[i], ref.Data[i])
		}
	}
	if n := packedSteps(t, g); n != 2 {
		t.Fatalf("compiled steps reading packed panels = %d, want 2", n)
	}
	i8, f32, _ := e.DispatchCounts()
	if i8 != 2 || f32 != 1 {
		t.Fatalf("dispatch counts i8=%d f32=%d, want 2/1", i8, f32)
	}
}
