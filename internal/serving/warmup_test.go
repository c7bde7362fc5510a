//go:build !race

package serving

import (
	"runtime"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
)

// TestWarmupRunsOncePerEngine: Warmup runs the shared program once, on
// the first replica, and only builds the other replicas' arenas. After it
// the engine has dispatched one run's kernels, every replica holds an
// arena of one buffer per planned slot, and a sibling's first run
// allocates no more than a steady-state Infer
// (TestEngineSteadyStateAllocs): its planned values are written into the
// arena Warmup built. Excluded under -race: the race runtime
// adds allocations of its own.
func TestWarmupRunsOncePerEngine(t *testing.T) {
	g := model.MustGet("CifarNet").Build(nn.Options{Materialize: true, Seed: 7})
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		t.Fatal(err)
	}
	plan, err := graph.PlanBuffers(g)
	if err != nil {
		t.Fatal(err)
	}
	const replicas = 3
	e, err := NewEngine(g, replicas)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Warmup(); err != nil {
		t.Fatal(err)
	}

	i8, f32, fz := e.DispatchCounts()
	if w8, w32, wz := e.prog.Counts(); [3]int64{i8, f32, fz} != [3]int64{w8, w32, wz} {
		t.Errorf("after Warmup int8/fp32/fused = %d/%d/%d, want one run's %d/%d/%d", i8, f32, fz, w8, w32, wz)
	}

	// The replicas come back in the order Warmup borrowed them: the one
	// that ran first.
	exs := make([]*graph.Executor, replicas)
	for i := range exs {
		exs[i] = <-e.replicas
	}
	defer func() {
		for _, ex := range exs {
			e.replicas <- ex
		}
	}()
	for i, ex := range exs {
		if n := ex.ArenaBuffers(); n != len(plan.Slots) {
			t.Errorf("replica %d: %d arena buffers after Warmup, want all %d planned slots", i, n, len(plan.Slots))
		}
	}

	in := tensor.New(g.Input.OutShape...).Fill(0.25)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := exs[0].Run(g, in); err != nil { // settles the kernel pool at GOMAXPROCS 1
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = exs[1].Run(g, in)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 8 {
		t.Errorf("a sibling's first run made %d allocations, want <= 8", allocs)
	}
}
