package core_test

import (
	"testing"

	"edgebench/internal/core"
	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
)

// Ablation benchmarks for the design choices DESIGN.md §5 calls out:
// each reports the modeled latency effect of toggling one optimization,
// so `go test -bench=Ablation ./internal/core` quantifies where the
// frameworks' speedups come from (§VI-B2's attribution).

func ablate(b *testing.B, passes ...func(*graph.Graph)) float64 {
	b.Helper()
	g := model.MustGet("ResNet-50").Build(nn.Options{})
	for _, p := range passes {
		p(g)
	}
	s, err := core.NewFromGraph(g, "TensorRT", "JetsonNano")
	if err != nil {
		b.Fatal(err)
	}
	return s.InferenceSeconds()
}

func BenchmarkAblationBaselineFP32(b *testing.B) {
	var t float64
	for i := 0; i < b.N; i++ {
		t = ablate(b)
	}
	b.ReportMetric(t*1e3, "modeled-ms")
}

func BenchmarkAblationFusionOnly(b *testing.B) {
	var t float64
	for i := 0; i < b.N; i++ {
		t = ablate(b, opt.FoldAndFuse)
	}
	b.ReportMetric(t*1e3, "modeled-ms")
}

func BenchmarkAblationQuantizationOnly(b *testing.B) {
	var t float64
	for i := 0; i < b.N; i++ {
		t = ablate(b, graph.QuantizeINT8)
	}
	b.ReportMetric(t*1e3, "modeled-ms")
}

func BenchmarkAblationFP16Only(b *testing.B) {
	var t float64
	for i := 0; i < b.N; i++ {
		t = ablate(b, graph.CastFP16)
	}
	b.ReportMetric(t*1e3, "modeled-ms")
}

func BenchmarkAblationFullTensorRTPipeline(b *testing.B) {
	var t float64
	for i := 0; i < b.N; i++ {
		t = ablate(b, opt.FoldAndFuse, graph.QuantizeINT8, graph.EliminateDead)
	}
	b.ReportMetric(t*1e3, "modeled-ms")
}

// BenchmarkAblationPruning sweeps sparsity on a sparse-aware framework.
func BenchmarkAblationPruning(b *testing.B) {
	for _, frac := range []float64{0, 0.5, 0.9} {
		frac := frac
		b.Run(sparsityName(frac), func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				t = ablate(b, graph.Prune(frac))
			}
			b.ReportMetric(t*1e3, "modeled-ms")
		})
	}
}

func sparsityName(f float64) string {
	switch f {
	case 0:
		return "dense"
	case 0.5:
		return "sparse50"
	default:
		return "sparse90"
	}
}

// BenchmarkAblationStaticVsDynamic compares graph disciplines on the
// dispatch-sensitive RPi.
func BenchmarkAblationStaticVsDynamic(b *testing.B) {
	for _, mode := range []graph.Mode{graph.Static, graph.Dynamic} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				g := model.MustGet("ResNet-18").Build(nn.Options{})
				g.Mode = mode
				fw := "TensorFlow"
				if mode == graph.Dynamic {
					fw = "PyTorch"
				}
				s, err := core.NewFromGraph(g, fw, "RPi3")
				if err != nil {
					b.Fatal(err)
				}
				t = s.InferenceSeconds()
			}
			b.ReportMetric(t*1e3, "modeled-ms")
		})
	}
}

// TestAblationOrdering pins the qualitative ablation result: each
// optimization helps, and the full pipeline beats any single one.
func TestAblationOrdering(t *testing.T) {
	base := ablateT(t)
	fused := ablateT(t, opt.FoldAndFuse)
	quant := ablateT(t, graph.QuantizeINT8)
	fp16 := ablateT(t, graph.CastFP16)
	full := ablateT(t, opt.FoldAndFuse, graph.QuantizeINT8, graph.EliminateDead)
	if !(fused < base && quant < base && fp16 < base) {
		t.Fatalf("each optimization should help: base %v fused %v quant %v fp16 %v", base, fused, quant, fp16)
	}
	if !(full < fused && full < quant) {
		t.Fatalf("full pipeline should dominate: full %v fused %v quant %v", full, fused, quant)
	}
	// INT8 on a device with native INT8 should beat FP16.
	if quant >= fp16 {
		t.Fatalf("int8 (%v) should beat fp16 (%v) on the Nano", quant, fp16)
	}
}

func ablateT(t *testing.T, passes ...func(*graph.Graph)) float64 {
	t.Helper()
	g := model.MustGet("ResNet-50").Build(nn.Options{})
	for _, p := range passes {
		p(g)
	}
	s, err := core.NewFromGraph(g, "TensorRT", "JetsonNano")
	if err != nil {
		t.Fatal(err)
	}
	return s.InferenceSeconds()
}

// TestPruningSparseAwareVsNot pins Table II's ‡‡ distinction: pruning
// only buys compute on frameworks that exploit sparsity.
func TestPruningSparseAwareVsNot(t *testing.T) {
	build := func() *graph.Graph {
		g := model.MustGet("ResNet-50").Build(nn.Options{})
		graph.Prune(0.8)(g)
		return g
	}
	aware, err := core.NewFromGraph(build(), "TensorRT", "JetsonNano") // PruningExploit: true
	if err != nil {
		t.Fatal(err)
	}
	naive, err := core.NewFromGraph(build(), "PyTorch", "JetsonNano") // PruningExploit: false
	if err != nil {
		t.Fatal(err)
	}
	denseAware, err := core.NewFromGraph(model.MustGet("ResNet-50").Build(nn.Options{}), "TensorRT", "JetsonNano")
	if err != nil {
		t.Fatal(err)
	}
	denseNaive, err := core.NewFromGraph(model.MustGet("ResNet-50").Build(nn.Options{}), "PyTorch", "JetsonNano")
	if err != nil {
		t.Fatal(err)
	}
	if aware.InferenceSeconds() >= denseAware.InferenceSeconds() {
		t.Fatal("sparse-aware framework should gain from pruning")
	}
	if naive.InferenceSeconds() < denseNaive.InferenceSeconds()*0.999 {
		t.Fatal("non-exploiting framework should gain nothing from pruning")
	}
}
