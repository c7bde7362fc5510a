//go:build !race

package serving_test

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

// TestEngineSteadyStateAllocs pins what a served CifarNet request costs
// the allocator once arenas and scratch pools are warm: Infer builds
// only its output tensor and the sharded kernels' closures (none for a
// pre-packed convolution, whose shard body is bound once per pooled
// job), and a two-sample InferBatch — fan-out over both replicas —
// stays under what the batch-folded schedule it replaced cost (49
// allocs/op).
// Excluded under -race: the race runtime adds allocations of its own.
func TestEngineSteadyStateAllocs(t *testing.T) {
	spec, ok := model.Get("CifarNet")
	if !ok {
		t.Fatal("no CifarNet in the zoo")
	}
	g := spec.Build(nn.Options{Materialize: true, Seed: 7})
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		t.Fatal(err)
	}
	eng, err := serving.NewEngine(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ins := []*tensor.Tensor{tensor.New(g.Input.OutShape...).Fill(0.25), tensor.New(g.Input.OutShape...).Fill(-0.5)}
	infer := func() {
		if _, err := eng.Infer(ins[0]); err != nil {
			t.Fatal(err)
		}
	}
	batch := func() {
		if _, err := eng.InferBatch(ins); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm both replicas' arenas and the scratch pools
		batch()
	}
	if got := testing.AllocsPerRun(20, infer); got > 8 {
		t.Errorf("Infer steady state = %.0f allocs/op, want <= 8", got)
	}
	if got := testing.AllocsPerRun(20, batch); got > 49 {
		t.Errorf("InferBatch(2) steady state = %.0f allocs/op, want <= 49", got)
	}
}

// TestEngineReplicasShareOnePanelSet: an engine's replicas share one
// compiled program, so on MobileNet-v2 at O2 quantized to int8 the live
// heap NewEngine(g, 4) adds, after a GC, exceeds what NewEngine(g, 1)
// adds by less than a quarter of one set of panels — a copy per replica
// would add three. The panel set is the program's own panel bytes: the
// int8 convs' packed codes (an FP32 program packs nothing). Excluded
// under -race for its run time.
func TestEngineReplicasShareOnePanelSet(t *testing.T) {
	g := model.MustGet("MobileNet-v2").Build(nn.Options{Materialize: true, Seed: 11})
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		t.Fatal(err)
	}
	opt.QuantizeINT8(g)
	p, err := graph.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	var panels int64
	for _, s := range p.Steps() {
		panels += int64(s.PanelBytes)
	}
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	grow := func(replicas int) int64 {
		before := heap()
		eng, err := serving.NewEngine(g, replicas)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		return heap() - before
	}
	one, four := grow(1), grow(4)
	t.Logf("panel set %.1f MB; heap growth of NewEngine(g, 1) %.1f MB, of NewEngine(g, 4) %.1f MB",
		float64(panels)/1e6, float64(one)/1e6, float64(four)/1e6)
	if one < panels {
		t.Fatalf("NewEngine(g, 1) grew the heap by %d bytes, less than one panel set (%d): the test measures nothing", one, panels)
	}
	if four-one >= panels/4 {
		t.Errorf("NewEngine(g, 4) grew the heap %d bytes more than NewEngine(g, 1), want < %d (a quarter of one panel set)", four-one, panels/4)
	}
}
