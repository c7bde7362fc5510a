//go:build !race

package graph_test

import (
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// TestParallelSteadyStateAllocs pins the scheduling-allocation fix: the
// wavefront executor caches its level partition and result slices, so a
// steady-state pooled-parallel pass must cost at most a small constant
// number of allocations more than the pooled-sequential pass (one fn
// closure per multi-node level, plus kernel-internal scratch misses),
// not the hundreds/op the per-level make() calls used to add.
// Excluded under -race: the race runtime adds allocations of its own.
func TestParallelSteadyStateAllocs(t *testing.T) {
	g := branchyCNN(t, 31)
	in := tensor.New(3, 16, 16)
	fillDeterministic(in)

	measure := func(e *graph.Executor) float64 {
		for i := 0; i < 3; i++ { // warm plan, arena, level cache, pools
			if _, err := e.Run(g, in); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := e.Run(g, in); err != nil {
				t.Fatal(err)
			}
		})
	}

	seq := measure(&graph.Executor{Pooled: true})
	par := measure(&graph.Executor{Pooled: true, Parallel: true})
	// The absolute bound beside the relative one: a compiled run builds
	// no per-run maps or slices, so what is left on this graph is the
	// kept output tensor (3), one closure per sharded kernel loop (two
	// GEMMs and a max-pool) and concat's shape check (1).
	if seq > 8 {
		t.Errorf("pooled sequential steady state = %.0f allocs/op, want <= 8; the executor is building per-run state again", seq)
	}
	if par > seq+16 {
		t.Errorf("pooled-parallel steady state = %.0f allocs/op vs pooled %.0f; scheduler is allocating per level again",
			par, seq)
	}
}

// TestBenchmarkGraphDispatchCounts pins, in tier 1, the two graphs the
// repository benchmark streams: per forward pass MobileNet-v2 at O2
// dispatches 53 FP32 conv/dense kernels, 52 of them fused, and
// SqueezeNet at O2 quantized to int8 dispatches 26 int8 kernels, all
// fused — and in both the counters are the compiled steps' counts.
// Excluded under -race only for its run time.
func TestBenchmarkGraphDispatchCounts(t *testing.T) {
	for _, c := range []struct {
		model, level      string
		fp32, int8, fused int64
	}{
		{"MobileNet-v2", "O2", 53, 0, 52},
		{"SqueezeNet", "O2+int8", 0, 26, 26},
	} {
		t.Run(c.model, func(t *testing.T) {
			int8, fp32, fused := checkCountersMatchSteps(t, zooGraph(t, c.model, c.level))
			if fp32 != c.fp32 || int8 != c.int8 || fused != c.fused {
				t.Errorf("dispatches per run fp32/int8/fused = %d/%d/%d, want %d/%d/%d",
					fp32, int8, fused, c.fp32, c.int8, c.fused)
			}
		})
	}
}
