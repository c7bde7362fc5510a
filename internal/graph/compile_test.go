package graph_test

import (
	"fmt"
	"strings"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/serving"
	"edgebench/internal/tensor"
)

// zooGraph builds a materialized zoo model at one of the three levels
// the serving stack deploys: as built ("O0"), through the O2 pass
// pipeline, or O2 then int8-quantized.
func zooGraph(t testing.TB, name, level string) *graph.Graph {
	t.Helper()
	spec, ok := model.Get(name)
	if !ok {
		t.Fatalf("no model %q in the zoo", name)
	}
	g := spec.Build(nn.Options{Materialize: true, Seed: 7})
	if level == "O0" {
		return g
	}
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		t.Fatalf("%s O2: %v", name, err)
	}
	if level == "O2+int8" {
		opt.QuantizeINT8(g)
	}
	return g
}

// programCounts compiles g and returns what one run of it dispatches.
func programCounts(t *testing.T, g *graph.Graph) (int8, fp32, fused int64) {
	t.Helper()
	p, err := graph.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return p.Counts()
}

// checkEngineCounts serves g from a one-replica engine — Warmup, then
// one Infer — and requires the engine's dispatch counts to be those two
// runs times the program's per-run Counts, which it returns.
func checkEngineCounts(t *testing.T, g *graph.Graph) (int8, fp32, fused int64) {
	t.Helper()
	int8, fp32, fused = programCounts(t, g)
	eng, err := serving.NewEngine(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Warmup(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Infer(seededInput(g.Input.OutShape, 3)); err != nil {
		t.Fatal(err)
	}
	const runs = 2
	if i8, f32, fz := eng.DispatchCounts(); i8 != runs*int8 || f32 != runs*fp32 || fz != runs*fused {
		t.Fatalf("engine dispatch counts int8/fp32/fused = %d/%d/%d after %d runs, program counts %d/%d/%d per run",
			i8, f32, fz, runs, int8, fp32, fused)
	}
	return int8, fp32, fused
}

// TestDispatchCountersMatchCompiledSteps pins the single source of truth
// zoo-wide: for every model under the compute budget, at every deployed
// level, a serving engine's dispatch counts after k runs are k times its
// program's Counts. (The two benchmark graphs, over budget here, are
// pinned to their exact numbers in exec_alloc_test.go.)
func TestDispatchCountersMatchCompiledSteps(t *testing.T) {
	ran := 0
	for _, spec := range model.AllWithExtensions() {
		if spec.GFLOPs() > zooBudgetGF {
			continue
		}
		for _, level := range []string{"O0", "O2", "O2+int8"} {
			ran++
			t.Run(spec.Name+"/"+level, func(t *testing.T) {
				checkEngineCounts(t, zooGraph(t, spec.Name, level))
			})
		}
	}
	if ran == 0 {
		t.Fatal("no zoo model under the compute budget")
	}
}

// TestPackedUnpackedBitIdentical: no FP32 convolution — K×K, pointwise,
// grouped or pruned — reads panels packed at compile (each reads its
// node's weights in place), and runs on the arena and on fresh buffers
// give the same output. A graph pruned to 80 % zeros runs densely: its
// output is the FP32 kernel's on the same weights, a group at a time, bit
// for bit.
func TestPackedUnpackedBitIdentical(t *testing.T) {
	b := nn.NewBuilder("pruned", nn.Options{Materialize: true, Seed: 67}, 16, 32, 32)
	b.Conv2D("conv", 32, 3, 1, 1, true)
	b.Conv2DG("gconv", 32, 3, 1, 1, 2, true)
	pruned := b.Build()
	graph.Prune(0.8)(pruned)
	graphs := map[string]*graph.Graph{
		"grouped":     prepackCNN(t, 61),
		"branchy":     branchyCNN(t, 62),
		"pruned":      pruned,
		"CifarNet":    zooGraph(t, "CifarNet", "O0"),
		"CifarNet/O2": zooGraph(t, "CifarNet", "O2"),
	}
	for name, g := range graphs {
		if n := packedSteps(t, g); n != 0 {
			t.Fatalf("%s: %d steps read packed panels, want none", name, n)
		}
		in := seededInput(g.Input.OutShape, 1)
		want := engineAt(t, g, g.Output, in)
		if g == pruned {
			requireBitEqual(t, "pruned vs the FP32 kernel", want, prunedReference(t, g, in))
		}
		for _, h := range []*graph.Graph{dynamicClone(g), g} {
			e := &graph.Executor{}
			for run := 0; run < 2; run++ {
				got, err := e.Run(h, in)
				if err != nil {
					t.Fatal(err)
				}
				requireBitEqual(t, fmt.Sprintf("%s/%v run %d", name, h.Mode, run), got, want)
			}
		}
	}
}

// prunedReference is the pruned graph's output computed outside the
// executor: the FP32 kernel on conv's weights, then on each half of
// gconv's, the halves joined. Both layers must be mostly zeros and large
// enough for the kernel to shard.
func prunedReference(t *testing.T, g *graph.Graph, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	conv, gconv := findNode(t, g, "conv"), findNode(t, g, "gconv")
	for _, n := range []*graph.Node{conv, gconv} {
		if s, macs := tensor.Sparsity(n.Weights), int(graph.NodeCost(n).MACs); s < 0.7 || macs < tensor.ParallelThresholdMACs() {
			t.Fatalf("%s: sparsity %v at %d MACs is not a pruned layer the kernel shards", n.Name, s, macs)
		}
	}
	spec := tensor.Conv2DSpec{Stride: 1, Pad: 1}
	x := tensor.New(32, 32, 32)
	directConv(x, in, conv.Weights, conv.Bias, spec)
	halves := make([]*tensor.Tensor, 2)
	for gi := range halves {
		halves[gi] = tensor.New(16, 32, 32)
		directConv(halves[gi], tensor.FromData(x.Data[gi*16*1024:(gi+1)*16*1024], 16, 32, 32),
			tensor.FromData(gconv.Weights.Data[gi*16*16*9:(gi+1)*16*16*9], 16, 16, 3, 3), gconv.Bias[gi*16:(gi+1)*16], spec)
	}
	want := tensor.New(32, 32, 32)
	tensor.ConcatChannelsInto(want, halves...)
	return want
}

// directConv is the FP32 convolution kernel on w, no epilogue.
func directConv(dst, in, w *tensor.Tensor, bias []float32, spec tensor.Conv2DSpec) {
	tensor.Conv2DInto(dst, in, w, bias, spec, tensor.Epilogue{})
}

// TestGroupedConvFusesEpilogueIntoDst: the grouped convolution runs the
// FP32 kernel once per group on views of its operands and of the
// destination, with an absorbed affine and ReLU6 folded in — bit for bit
// the unfused chain on per-slice convolutions joined by ConcatChannelsInto,
// into a recycled destination, run after run.
func TestGroupedConvFusesEpilogueIntoDst(t *testing.T) {
	b := nn.NewBuilder("grouped", nn.Options{Materialize: true, Seed: 83}, 6, 9, 9)
	gconv := b.Conv2DG("gconv", 12, 3, 2, 1, 3, true)
	g := b.Build()
	in := seededInput(g.Input.OutShape, 7)
	slices := make([]*tensor.Tensor, 3)
	for gi := range slices {
		slices[gi] = tensor.New(4, 5, 5)
		directConv(slices[gi], tensor.FromData(in.Data[gi*2*81:(gi+1)*2*81], 2, 9, 9),
			tensor.FromData(gconv.Weights.Data[gi*4*2*9:(gi+1)*4*2*9], 4, 2, 3, 3),
			gconv.Bias[gi*4:(gi+1)*4], tensor.Conv2DSpec{Stride: 2, Pad: 1})
	}
	want := tensor.New(12, 5, 5)
	tensor.ConcatChannelsInto(want, slices...)
	gconv.EpiScale, gconv.EpiShift, gconv.EpiChannels = make([]float32, 12), make([]float32, 12), 12
	for oc := range gconv.EpiScale {
		gconv.EpiScale[oc], gconv.EpiShift[oc] = 0.5+float32(oc)/8, float32(oc%5)-2
	}
	gconv.Activation = graph.OpReLU6
	tensor.Epilogue{Scale: gconv.EpiScale, Shift: gconv.EpiShift, Act: tensor.ActReLU6}.ApplyInto(want)
	if _, _, fused := programCounts(t, g); fused != 1 {
		t.Fatalf("grouped conv binds %d fused kernels, want 1", fused)
	}
	for _, h := range []*graph.Graph{dynamicClone(g), g} {
		e := &graph.Executor{}
		for run := 0; run < 2; run++ {
			got, err := e.Run(h, in)
			if err != nil {
				t.Fatal(err)
			}
			requireBitEqual(t, fmt.Sprintf("%v run %d", h.Mode, run), got, want)
		}
	}
}

// TestGroupedPointwiseConvRunsChannelMajor: a grouped 1x1 convolution
// runs the FP32 kernel per group on views, reading its input rows and its
// weights in place, with an absorbed affine and ReLU6 folded in and each
// group large enough to shard — bit for bit the unfused chain: the kernel
// per group with no epilogue, joined, then the affine and activation. A
// group's Cout is odd, so the kernel pairs its last channel with itself.
// The step packs 0 panel bytes.
func TestGroupedPointwiseConvRunsChannelMajor(t *testing.T) {
	const cin, hw, cout, groups = 96, 40, 94, 2
	b := nn.NewBuilder("grouped-pointwise", nn.Options{Materialize: true, Seed: 89}, cin, hw, hw)
	gconv := b.Conv2DG("gpw", cout, 1, 1, 0, groups, true)
	g := b.Build()
	if macs := int(graph.NodeCost(gconv).MACs) / groups; macs < tensor.ParallelThresholdMACs() {
		t.Fatalf("a group's %d MACs do not shard", macs)
	}
	gconv.EpiScale, gconv.EpiShift, gconv.EpiChannels = make([]float32, cout), make([]float32, cout), cout
	for oc := range gconv.EpiScale {
		gconv.EpiScale[oc], gconv.EpiShift[oc] = 0.5+float32(oc%9)/8, float32(oc%5)-2
	}
	gconv.Activation = graph.OpReLU6
	in := seededInput(g.Input.OutShape, 3)
	ci, co, plane := cin/groups, cout/groups, hw*hw
	want := tensor.New(cout, hw, hw)
	for gi := 0; gi < groups; gi++ {
		directConv(tensor.FromData(want.Data[gi*co*plane:(gi+1)*co*plane], co, hw, hw),
			tensor.FromData(in.Data[gi*ci*plane:(gi+1)*ci*plane], ci, hw, hw),
			tensor.FromData(gconv.Weights.Data[gi*co*ci:(gi+1)*co*ci], co, ci, 1, 1),
			gconv.Bias[gi*co:(gi+1)*co], tensor.Conv2DSpec{Stride: 1})
	}
	tensor.Epilogue{Scale: gconv.EpiScale, Shift: gconv.EpiShift, Act: tensor.ActReLU6}.ApplyInto(want)
	p, err := graph.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.Steps() {
		if s.Node == gconv && (s.PanelBytes != 0 || s.Packed) {
			t.Fatalf("grouped pointwise conv packed %d bytes, want 0: it reads its weights in place", s.PanelBytes)
		}
	}
	e := &graph.Executor{}
	for run := 0; run < 2; run++ {
		got, err := e.Run(g, in)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fmt.Sprintf("run %d", run), got, want)
	}
}

// TestFreshExecutorSeesWeightUpdates: a program packs its panels once,
// at compile, so a weight updated in place is seen by a fresh executor:
// its output is a fresh executor's on a fresh copy of the updated graph,
// and not the output from before the update.
func TestFreshExecutorSeesWeightUpdates(t *testing.T) {
	for _, int8 := range []bool{false, true} {
		g := prepackCNN(t, 73)
		if int8 {
			graph.QuantizeINT8(g)
			if i8, _, _ := programCounts(t, g); i8 != 2 {
				t.Fatalf("quantized graph binds %d int8 kernels, want conv1 and fc", i8)
			}
		}
		in := seededInput(g.Input.OutShape, 5)
		first, err := (&graph.Executor{}).Run(g, in)
		if err != nil {
			t.Fatal(err)
		}
		first = first.Clone()
		for _, n := range g.Nodes {
			if n.Weights == nil {
				continue
			}
			for i, v := range n.Weights.Data {
				n.Weights.Data[i] = -v
			}
			if n.QWeights != nil {
				for i, c := range n.QWeights.Data {
					n.QWeights.Data[i] = -c
				}
			}
		}
		second, err := (&graph.Executor{}).Run(g, in)
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&graph.Executor{}).Run(g.Clone(), in)
		if err != nil {
			t.Fatal(err)
		}
		requireBitEqual(t, fmt.Sprintf("int8=%v after the update", int8), second, want)
		same := true
		for i := range first.Data {
			same = same && first.Data[i] == second.Data[i]
		}
		if same {
			t.Fatalf("int8=%v: the update changed no output bit: the comparison above proves nothing", int8)
		}
	}
}

// dynamicClone returns a copy of g that runs on fresh buffers: the
// graph's Mode decides whether the executor recycles intermediates
// through its arena, so g against this copy is arena against fresh.
func dynamicClone(g *graph.Graph) *graph.Graph {
	d := g.Clone()
	d.Mode = graph.Dynamic
	return d
}

func requireBitEqual(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.Shape.Equal(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: out[%d] = %v, want %v (bitwise)", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestNilInputIsAnError: a nil input tensor is reported as an error by
// Run, instead of a nil dereference outside the executor's recover
// guard.
func TestNilInputIsAnError(t *testing.T) {
	g := smallCNN(t, 71)
	for _, c := range []struct {
		name string
		run  func(e *graph.Executor) error
	}{
		{"Run(nil)", func(e *graph.Executor) error { _, err := e.Run(g, nil); return err }},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.run(&graph.Executor{})
			if err == nil || !strings.Contains(err.Error(), "input is nil") {
				t.Fatalf("err = %v, want one saying the input is nil", err)
			}
		})
	}
}
