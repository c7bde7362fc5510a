//go:build !race

package serving_test

import (
	"testing"

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
