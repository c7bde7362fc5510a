package model_test

import (
	"math"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/tensor"
)

// int8Tolerance matches TestQuantizeINT8 in internal/graph: the
// quantized path introduces bounded error but must keep whole-model
// outputs close to the FP32 reference.
const int8Tolerance = 0.2

// TestZooInt8Conformance runs every zoo model under the compute budget
// through the real int8 execution path: the graph is quantized with
// QuantizeINT8, executed on fresh buffers and on the arena (so under `make race` this
// doubles as the sharded int8 kernels' data-race gate), and each output
// is compared against the FP32 run of the unquantized twin. Models with int8-executable layers
// must actually dispatch int8 kernels, not silently fall back.
func TestZooInt8Conformance(t *testing.T) {
	budget := execBudgetGF()
	if testing.Short() {
		budget = 0.05
	}
	ran := 0
	for _, spec := range model.AllWithExtensions() {
		if gf := spec.GFLOPs(); gf > budget {
			t.Logf("skipping %s: %.2f GFLOPs over the %.2f budget", spec.Name, gf, budget)
			continue
		}
		ran++
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Build(nn.Options{Materialize: true, Seed: 42})
			in := tensor.New(g.Input.OutShape...)
			for i := range in.Data {
				in.Data[i] = float32(math.Sin(float64(i)*0.7)) * 0.5
			}
			ref, err := (&graph.Executor{}).Run(g, in)
			if err != nil {
				t.Fatalf("fp32 reference: %v", err)
			}

			qg := g.Clone()
			graph.QuantizeINT8(qg)
			quantizable := 0
			for _, n := range qg.Nodes {
				if n.QWeights != nil {
					quantizable++
				}
			}
			fresh := qg.Clone()
			fresh.Mode = graph.Dynamic
			for _, h := range []*graph.Graph{fresh, qg} {
				got, err := (&graph.Executor{}).Run(h, in)
				if err != nil {
					t.Fatalf("%v int8 run: %v", h.Mode, err)
				}
				if !got.Shape.Equal(ref.Shape) {
					t.Fatalf("%v: shape %v, want %v", h.Mode, got.Shape, ref.Shape)
				}
				var maxDiff float64
				for i := range ref.Data {
					if d := math.Abs(float64(got.Data[i] - ref.Data[i])); d > maxDiff {
						maxDiff = d
					}
				}
				if maxDiff > int8Tolerance {
					t.Fatalf("%v: int8 output drifts %.4f from FP32 (tolerance %v)",
						h.Mode, maxDiff, int8Tolerance)
				}
			}
			p, err := graph.Compile(qg)
			if err != nil {
				t.Fatal(err)
			}
			if i8, _, _ := p.Counts(); quantizable > 0 && i8 == 0 {
				t.Fatalf("%d quantizable nodes but zero int8 kernel dispatches", quantizable)
			}
		})
	}
	if ran == 0 {
		t.Fatal("compute budget excluded every zoo model")
	}
}
