//go:build !race

package tensor_test

import (
	"runtime"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/serving"
	"edgebench/internal/tensor"
)

// TestPackedConvForksOnce counts the fork-joins of one served
// MobileNet-v2 inference on two cores: one parallelFor per convolution,
// the staged stem included (there were three: lowering, GEMM, epilogue
// sweep), one per
// depthwise layer at or above the depthwise bar (all of them), one for
// the classifier's matvec — and, on an idle pool, every one of them gets
// a helper. Excluded under -race, where the forward takes seconds.
func TestPackedConvForksOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	spec, ok := model.Get("MobileNet-v2")
	if !ok {
		t.Fatal("no MobileNet-v2 in the zoo")
	}
	g := spec.Build(nn.Options{Materialize: true, Seed: 11})
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		t.Fatal(err)
	}
	eng, err := serving.NewEngine(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var convs, depthwise, forks int64
	for _, n := range g.Nodes {
		macs := int(graph.NodeCost(n).MACs)
		switch {
		case n.Kind == graph.OpConv2D && n.Attrs.GroupCount() == 1:
			convs++
			forks++
		case n.Kind == graph.OpDepthwiseConv2D && macs >= tensor.DepthwiseShardMACs:
			depthwise++
			forks++
		case n.Kind == graph.OpDense && macs >= tensor.ParallelThresholdMACs():
			forks++
		case n.Kind == graph.OpConv2D || n.Kind == graph.OpDepthwiseConv2D:
			t.Errorf("%s would run on one core", n)
		}
	}
	if convs != 35 || depthwise != 17 {
		t.Fatalf("MobileNet-v2 has %d convs and %d sharded depthwise layers, want 35 and 17", convs, depthwise)
	}
	requireForks(t, eng, g, forks)
}

// TestPackedQConvForksOnce is the int8 twin on the benchmark's SqueezeNet
// (O2, then quantized): one parallelFor per int8 convolution — its cut
// (convJob.run); staging, the dot products and the requantize fork
// nowhere else — every one of them at or above the MAC bar, and nothing
// else: the activation quantizer and the max-pools run on the calling
// core. 26 forks.
func TestPackedQConvForksOnce(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	spec, ok := model.Get("SqueezeNet")
	if !ok {
		t.Fatal("no SqueezeNet in the zoo")
	}
	g := spec.Build(nn.Options{Materialize: true, Seed: 11})
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		t.Fatal(err)
	}
	opt.QuantizeINT8(g)
	eng, err := serving.NewEngine(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var convs, forks int64
	for _, n := range g.Nodes {
		switch {
		case n.Kind == graph.OpConv2D && n.QWeights != nil:
			convs++
			if int(graph.NodeCost(n).MACs) >= tensor.ParallelThresholdMACs() {
				forks++
			}
		case n.Kind == graph.OpConv2D || n.Kind == graph.OpDense || n.Kind == graph.OpDepthwiseConv2D:
			t.Errorf("%s is not an int8 convolution", n)
		}
	}
	if convs != 26 || forks != 26 {
		t.Fatalf("SqueezeNet-int8 has %d int8 convs, %d of them at or above the MAC bar; want 26 and 26", convs, forks)
	}
	requireForks(t, eng, g, forks)
}

// BenchmarkInferHandoff is one served inference on two cores, lone caller,
// of the two stream workloads' models — MobileNet-v2 (O2, FP32) and
// SqueezeNet (O2, int8) — reporting the pool's hand-off per inference:
// offers made, offers taken by a worker still spinning, offers retracted,
// and the late-start total, enlist → helper start summed over the offers
// taken (EXPERIMENTS.md table J).
func BenchmarkInferHandoff(b *testing.B) {
	for _, tc := range []struct {
		model string
		int8  bool
	}{{"MobileNet-v2", false}, {"SqueezeNet", true}} {
		b.Run(tc.model, func(b *testing.B) {
			old := runtime.GOMAXPROCS(2)
			defer runtime.GOMAXPROCS(old)
			spec, _ := model.Get(tc.model)
			g := spec.Build(nn.Options{Materialize: true, Seed: 11})
			if _, err := opt.Optimize(g, opt.O2); err != nil {
				b.Fatal(err)
			}
			if tc.int8 {
				opt.QuantizeINT8(g)
			}
			eng, err := serving.NewEngine(g, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			in := tensor.New(g.Input.OutShape...).Fill(0.25)
			for i := 0; i < 3; i++ {
				if _, err := eng.Infer(in); err != nil {
					b.Fatal(err)
				}
			}
			offers, hot, retracted, wait := tensor.PoolHandoff()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Infer(in); err != nil {
					b.Fatal(err)
				}
			}
			offers1, hot1, retracted1, wait1 := tensor.PoolHandoff()
			n := float64(b.N)
			b.ReportMetric(float64(offers1-offers)/n, "offers/op")
			b.ReportMetric(float64(hot1-hot)/n, "hot/op")
			b.ReportMetric(float64(retracted1-retracted)/n, "retracted/op")
			b.ReportMetric(float64(wait1-wait)/n/1e3, "late-µs/op")
		})
	}
}

// requireForks runs inferences on eng until one gives every fork a helper,
// and requires each to issue exactly forks parallelFor calls.
func requireForks(t *testing.T, eng *serving.Engine, g *graph.Graph, forks int64) {
	t.Helper()
	in := tensor.New(g.Input.OutShape...).Fill(0.25)
	// Enlisting is a non-blocking hand-off to a parked worker, and one that
	// has just finished a task may not have parked again yet: the count of
	// forks must hold on every inference, a helper for each on one of a few.
	allHelped := false
	for try := 0; try < 10 && !allHelped; try++ {
		p0, s0 := tensor.PoolRuns()
		if _, err := eng.Infer(in); err != nil {
			t.Fatal(err)
		}
		p1, s1 := tensor.PoolRuns()
		if got := (p1 - p0) + (s1 - s0); got != forks {
			t.Fatalf("one inference issued %d parallelFor calls, want %d (one per sharded kernel)", got, forks)
		}
		allHelped = s1 == s0
	}
	if !allHelped {
		t.Error("no inference in 10 on an idle pool gave every sharded kernel a helper")
	}
}
