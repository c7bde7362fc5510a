package exchange_test

import (
	"bytes"
	"strings"
	"testing"

	"edgebench/internal/exchange"
	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

func TestRoundTripStructural(t *testing.T) {
	// Every Table I model must survive a structural round trip with
	// identical cost accounting.
	for _, spec := range model.All() {
		g := spec.Build(nn.Options{})
		data, err := exchange.Export(g, exchange.Options{})
		if err != nil {
			t.Fatalf("%s export: %v", spec.Name, err)
		}
		back, err := exchange.Import(data)
		if err != nil {
			t.Fatalf("%s import: %v", spec.Name, err)
		}
		if back.Params() != g.Params() {
			t.Errorf("%s: params %d -> %d", spec.Name, g.Params(), back.Params())
		}
		if back.FLOPs() != g.FLOPs() {
			t.Errorf("%s: flops %v -> %v", spec.Name, g.FLOPs(), back.FLOPs())
		}
		if back.NumOps() != g.NumOps() {
			t.Errorf("%s: ops %d -> %d", spec.Name, g.NumOps(), back.NumOps())
		}
		if len(back.Extra) != len(g.Extra) {
			t.Errorf("%s: extra outputs %d -> %d", spec.Name, len(g.Extra), len(back.Extra))
		}
		if back.Mode != g.Mode || back.Name != g.Name {
			t.Errorf("%s: metadata drift", spec.Name)
		}
	}
}

func TestRoundTripWithWeightsExecutes(t *testing.T) {
	b := nn.NewBuilder("wtrip", nn.Options{Materialize: true, Seed: 4}, 3, 8, 8)
	b.ConvBNReLU("blk", 4, 3, 1, 1)
	b.GlobalAvgPool("gap")
	b.Dense("fc", 3, true)
	b.Softmax("p")
	g := b.Build()

	data, err := exchange.Export(g, exchange.Options{IncludeWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	back, err := exchange.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(3, 8, 8).Randomize(stats.NewRNG(5), 1)
	want, err := (&graph.Executor{}).Run(g, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&graph.Executor{}).Run(back, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("execution diverges at %d", i)
		}
	}
}

func TestStructuralExportIsCompact(t *testing.T) {
	g := model.MustGet("VGG16").Build(nn.Options{})
	data, err := exchange.Export(g, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 138M parameters must NOT be in a structural export.
	if len(data) > 64<<10 {
		t.Fatalf("structural VGG16 export is %d bytes; weights leaked?", len(data))
	}
}

func TestImportRejectsCorruption(t *testing.T) {
	g := model.MustGet("CifarNet").Build(nn.Options{})
	data, err := exchange.Export(g, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(string) string{
		"bad version": func(s string) string {
			return strings.Replace(s, `"version":3`, `"version":9`, 1)
		},
		"unknown op": func(s string) string {
			return strings.Replace(s, `"kind":"conv2d"`, `"kind":"quantum"`, 1)
		},
		"forward reference": func(s string) string {
			return strings.Replace(s, `"inputs":[0]`, `"inputs":[99]`, 1)
		},
		"not json": func(string) string { return "][" },
	}
	for name, corrupt := range cases {
		bad := editHeader(t, data, corrupt)
		if bytes.Equal(bad, data) {
			t.Fatalf("%s: the edit changed nothing", name)
		}
		if _, err := exchange.Import(bad); err == nil {
			t.Errorf("%s: import should fail", name)
		}
	}
	if _, err := exchange.Import(container(`{"version":3,"nodes":[]}`, nil)); err == nil {
		t.Error("empty model should fail")
	}
}

func TestImportIntoFrameworkQuirks(t *testing.T) {
	export := func(name string) []byte {
		g := model.MustGet(name).Build(nn.Options{})
		data, err := exchange.Export(g, exchange.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// The EdgeTPU compiler path rejects DarkNet (leaky relu) and video
	// (conv3d) models — Table V's "4" marks.
	if _, err := exchange.ImportInto(export("TinyYolo"), "TFLite-EdgeTPU"); err == nil {
		t.Error("edgetpu should reject TinyYolo")
	}
	if _, err := exchange.ImportInto(export("C3D"), "TFLite-EdgeTPU"); err == nil {
		t.Error("edgetpu should reject C3D")
	}
	if _, err := exchange.ImportInto(export("MobileNet-v2"), "TFLite-EdgeTPU"); err != nil {
		t.Errorf("edgetpu should accept MobileNet-v2: %v", err)
	}
	// NCSDK lacks an upsample kernel (YOLOv3) but ships C3D kernels.
	if _, err := exchange.ImportInto(export("YOLOv3"), "NCSDK"); err == nil {
		t.Error("ncsdk should reject YOLOv3")
	}
	if _, err := exchange.ImportInto(export("C3D"), "NCSDK"); err != nil {
		t.Errorf("ncsdk should accept C3D: %v", err)
	}
	// General frameworks accept everything.
	if _, err := exchange.ImportInto(export("YOLOv3"), "PyTorch"); err != nil {
		t.Errorf("pytorch import: %v", err)
	}
}

func TestRoundTripLoweredGraph(t *testing.T) {
	// A deployment-lowered graph carries fused activations, folded BN
	// flags, reduced dtypes, and sparsity; the wire format must round-trip
	// them so cost metrics survive exactly.
	g := model.MustGet("ResNet-50").Build(nn.Options{})
	graph.FoldBN(g)
	graph.FusePatterns(g)
	graph.Prune(0.5)(g)
	data, err := exchange.Export(g, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := exchange.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumOps() != g.NumOps() || back.Params() != g.Params() {
		t.Fatalf("lowered structure drifted: ops %d->%d params %d->%d",
			g.NumOps(), back.NumOps(), g.Params(), back.Params())
	}
	if back.FLOPs() != g.FLOPs() {
		t.Fatalf("flops drifted: %v -> %v", g.FLOPs(), back.FLOPs())
	}
}

func TestRoundTripDeploymentAnnotations(t *testing.T) {
	g := model.MustGet("MobileNet-v2").Build(nn.Options{})
	graph.FoldBN(g)
	graph.FusePatterns(g)
	graph.QuantizeINT8(g)
	data, err := exchange.Export(g, exchange.Options{})
	if err != nil {
		t.Fatal(err)
	}
	back, err := exchange.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	var fused, int8n int
	for _, n := range back.Nodes {
		if n.Activation != 0 {
			fused++
		}
		if n.DType == tensor.INT8 {
			int8n++
		}
	}
	if fused == 0 || int8n != len(back.Nodes) {
		t.Fatalf("annotations lost: %d fused, %d int8 of %d", fused, int8n, len(back.Nodes))
	}
	// Corrupt annotation values must be rejected.
	bad := editHeader(t, data, func(s string) string {
		return strings.Replace(s, `"activation":"relu6"`, `"activation":"conv2d"`, 1)
	})
	if !bytes.Equal(bad, data) {
		if _, err := exchange.Import(bad); err == nil {
			t.Fatal("non-activation fused op should be rejected")
		}
	}
	bad2 := editHeader(t, data, func(s string) string {
		return strings.Replace(s, `"dtype":"int8"`, `"dtype":"int3"`, 1)
	})
	if _, err := exchange.Import(bad2); err == nil {
		t.Fatal("unknown dtype should be rejected")
	}
}

func TestRoundTripFusedGraphExecutes(t *testing.T) {
	// An O2-fused graph (epilogue-carrying nodes, folded consts removed)
	// must survive a weighted round trip and execute bitwise-identically:
	// EpiChannels/EpiScale/EpiShift ride the interchange format.
	b := nn.NewBuilder("ftrip", nn.Options{Materialize: true, Seed: 6}, 3, 8, 8)
	b.ConvBNReLU("blk1", 4, 3, 1, 1)
	b.ConvBNReLU("blk2", 8, 3, 2, 1)
	b.GlobalAvgPool("gap")
	b.Dense("fc", 3, true)
	b.Softmax("p")
	g := b.Build()
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		t.Fatal(err)
	}
	fused := 0
	for _, n := range g.Nodes {
		if n.EpiChannels > 0 {
			fused++
		}
	}
	if fused == 0 {
		t.Fatal("O2 fused nothing; the round trip would not exercise epilogues")
	}

	data, err := exchange.Export(g, exchange.Options{IncludeWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	back, err := exchange.Import(data)
	if err != nil {
		t.Fatal(err)
	}
	backFused := 0
	for _, n := range back.Nodes {
		if n.EpiChannels > 0 {
			backFused++
			if len(n.EpiScale) != n.EpiChannels || len(n.EpiShift) != n.EpiChannels {
				t.Fatalf("node %s epilogue arrays %d/%d, want %d",
					n, len(n.EpiScale), len(n.EpiShift), n.EpiChannels)
			}
		}
	}
	if backFused != fused {
		t.Fatalf("round trip kept %d epilogue nodes, want %d", backFused, fused)
	}
	in := tensor.New(3, 8, 8).Randomize(stats.NewRNG(7), 1)
	want, err := (&graph.Executor{}).Run(g, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&graph.Executor{}).Run(back, in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("fused execution diverges at %d after round trip", i)
		}
	}
}
