//go:build !race

package serving_test

import (
	"runtime"
	"testing"

	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/serving"
	"edgebench/internal/tensor"
)

// TestEngineSteadyStateAllocs pins what a served CifarNet request costs
// the allocator once arenas and scratch pools are warm: Infer builds
// only its output tensor and Flatten's view of its input, and no kernel
// builds a closure (a convolution's shard body is bound once per pooled
// job) or a shape check's expected shape; a
// two-sample InferBatch — fan-out over both replicas —
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
	if got := testing.AllocsPerRun(20, infer); got > 6 {
		t.Errorf("Infer steady state = %.0f allocs/op, want <= 6", got)
	}
	if got := testing.AllocsPerRun(20, batch); got > 49 {
		t.Errorf("InferBatch(2) steady state = %.0f allocs/op, want <= 49", got)
	}
}

// TestEngineReplicasShareOnePanelSet: an engine's replicas share one
// compiled program, and every int8 kernel reads the node's codes in place,
// so on MobileNet-v2 at O2 quantized to int8 the live heap NewEngine(g, 4)
// adds, after a GC, exceeds what NewEngine(g, 1) adds by less than a
// quarter of the graph's int8 codes — a copy of them per replica, packed
// or not, would add three. Excluded under -race for its run time.
func TestEngineReplicasShareOnePanelSet(t *testing.T) {
	g := model.MustGet("MobileNet-v2").Build(nn.Options{Materialize: true, Seed: 11})
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		t.Fatal(err)
	}
	opt.QuantizeINT8(g)
	var codes int64
	for _, n := range g.Nodes {
		if n.QWeights != nil {
			codes += int64(len(n.QWeights.Data))
		}
	}
	if codes == 0 {
		t.Fatal("the quantized graph holds no int8 codes: the test measures nothing")
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
	t.Logf("int8 codes %.1f MB; heap growth of NewEngine(g, 1) %.1f MB, of NewEngine(g, 4) %.1f MB",
		float64(codes)/1e6, float64(one)/1e6, float64(four)/1e6)
	if four-one >= codes/4 {
		t.Errorf("NewEngine(g, 4) grew the heap %d bytes more than NewEngine(g, 1), want < %d (a quarter of the int8 codes)", four-one, codes/4)
	}
}
