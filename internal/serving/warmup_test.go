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
// arena with every planned slot idle, the two replicas that never ran
// have served no Get, and a sibling's first run takes every buffer from
// its arena and allocates no more than a steady-state Infer
// (TestEngineSteadyStateAllocs). Excluded under -race: the race runtime
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
		st := ex.PoolStats()
		if st.Idle != len(plan.Slots) {
			t.Errorf("replica %d: %d idle arena buffers after Warmup, want all %d planned slots", i, st.Idle, len(plan.Slots))
		}
		if i > 0 && st.Gets != 0 {
			t.Errorf("replica %d: %d arena Gets after Warmup, want 0: only the first replica runs", i, st.Gets)
		}
	}
	if exs[0].PoolStats().Gets == 0 {
		t.Error("replica 0 served no arena Get: Warmup ran no inference")
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
	if st := exs[1].PoolStats(); st.Misses != 0 {
		t.Errorf("a sibling's first run missed the arena %d times, want 0", st.Misses)
	}

}
