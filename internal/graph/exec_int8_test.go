package graph_test

import (
	"strings"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
)

// mixedCNN builds a graph with both int8-executable ops (dense conv,
// dense) and fallback-only ops (depthwise conv), so one run exercises
// the int8 dispatch and the FP32 fallback together.
func mixedCNN(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("mixed", nn.Options{Materialize: true, Seed: seed}, 3, 8, 8)
	b.Conv2D("conv1", 8, 3, 1, 1, true)
	b.ReLU("relu1")
	b.DepthwiseConv2D("dw", 3, 1, 1, true)
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

// TestQuantizedDispatchProbe asserts a QuantizeINT8 graph actually
// executes the int8 kernels: its program must dispatch int8 kernels for
// the conv and dense nodes and an FP32 fallback for the depthwise conv,
// and the output stays near FP32's — on fresh buffers and on the arena.
func TestQuantizedDispatchProbe(t *testing.T) {
	in := tensor.New(3, 8, 8).Fill(0.25)
	for _, c := range []struct {
		name string
		mode graph.Mode
	}{{"sequential", graph.Dynamic}, {"pooled", graph.Static}} {
		t.Run(c.name, func(t *testing.T) {
			g := mixedCNN(t, 21)
			g.Mode = c.mode
			graph.FusePatterns(g)
			ref := run(t, g, in)
			graph.QuantizeINT8(g)

			out := run(t, g, in)
			i8, f32, _ := programCounts(t, g)
			if i8 != 2 {
				t.Fatalf("int8 dispatches = %d, want 2 (conv1+fc)", i8)
			}
			if f32 != 1 {
				t.Fatalf("fp32 fallback dispatches = %d, want 1 (depthwise)", f32)
			}
			if d := maxAbsDiff(ref, out); d > 0.2 {
				t.Fatalf("int8 output error too large: %v", d)
			}
		})
	}
}

// TestQuantizedFusedActivationMatchesUnfused pins the epilogue fusion:
// a quantized graph with a fused ReLU must equal the same graph with
// the activation as a standalone node (both on the int8 path for the
// conv, identical dynamic quantization inputs).
func TestQuantizedFusedActivationMatchesUnfused(t *testing.T) {
	in := tensor.New(3, 8, 8).Fill(0.3)
	unfused := mixedCNN(t, 33)
	fused := unfused.Clone()
	graph.FusePatterns(fused)
	graph.QuantizeINT8(unfused)
	graph.QuantizeINT8(fused)
	a := run(t, unfused, in)
	b := run(t, fused, in)
	if d := maxAbsDiff(a, b); d != 0 {
		t.Fatalf("fused epilogue diverges from standalone activation by %v", d)
	}
}

// TestQuantizePerChannelExecutesInt8 covers the per-channel pass on the
// same probe: real int8 dispatch with per-output-channel weight scales.
func TestQuantizePerChannelExecutesInt8(t *testing.T) {
	in := tensor.New(3, 8, 8).Fill(0.2)
	g := mixedCNN(t, 8)
	ref := run(t, g, in)
	graph.QuantizeINT8PerChannel(g)
	out, err := (&graph.Executor{}).Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if i8, _, _ := programCounts(t, g); i8 != 2 {
		t.Fatalf("int8 dispatches = %d, want 2", i8)
	}
	if d := maxAbsDiff(ref, out); d > 0.2 {
		t.Fatalf("per-channel int8 output error too large: %v", d)
	}
	for _, n := range g.Nodes {
		if n.Kind == graph.OpConv2D && n.QWeights != nil && n.QWeights.Scales == nil {
			t.Fatalf("node %s missing per-channel scales", n)
		}
	}
}

// TestQuantizedNodesHoldOneCopy: after either quantization pass, on
// SqueezeNet and MobileNet-v2 at O2, every weighted node holds its
// weights once — int8 codes or FP32 Weights, never both — and the graph
// compiles. A node stripped of both, or holding codes bind would not run
// int8 and no Weights, fails Compile as unmaterialized.
func TestQuantizedNodesHoldOneCopy(t *testing.T) {
	passes := map[string]func(*graph.Graph){
		"per-tensor":  opt.QuantizeINT8,
		"per-channel": opt.QuantizeINT8PerChannel,
	}
	for _, name := range []string{"SqueezeNet", "MobileNet-v2"} {
		for scheme, quantize := range passes {
			g := zooGraph(t, name, "O2")
			quantize(g)
			var q *graph.Node
			for _, n := range g.Nodes {
				if n.WShape != nil && (n.Weights == nil) == (n.QWeights == nil) {
					t.Fatalf("%s %s: %s holds Weights %v and codes %v, want exactly one",
						name, scheme, n, n.Weights != nil, n.QWeights != nil)
				}
				if n.QWeights != nil {
					q = n
				}
			}
			if q == nil {
				t.Fatalf("%s %s: no node kept int8 codes", name, scheme)
			}
			if _, err := graph.Compile(g); err != nil {
				t.Fatalf("%s %s: %v", name, scheme, err)
			}
			codes, kind := q.QWeights, q.Kind
			for _, strip := range []func(){
				func() { q.QWeights = nil },
				func() { q.Kind = graph.OpDepthwiseConv2D },
			} {
				strip()
				if _, err := graph.Compile(g); err == nil || !strings.Contains(err.Error(), graph.ErrNotMaterialized) {
					t.Fatalf("%s %s: %s without runnable weights compiled, err %v", name, scheme, q, err)
				}
				q.QWeights, q.Kind = codes, kind
			}
		}
	}
}
