//go:build !race

package graph_test

import (
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// TestParallelSteadyStateAllocs pins the steady-state allocation count
// of a pooled run on a branchy graph whose kernels shard over the worker
// pool: a compiled run builds no per-run maps or slices, so what is left
// is the kept output tensor (3), one closure per sharded kernel loop (two
// GEMMs and a max-pool) and concat's shape check (1). Packing panels
// allocates them, so the bound also says no steady-state run packs, and
// every run after the first reuses the first one's program.
// Excluded under -race: the race runtime adds allocations of its own.
func TestParallelSteadyStateAllocs(t *testing.T) {
	g := branchyCNN(t, 31)
	in := tensor.New(3, 16, 16)
	fillDeterministic(in)
	e := &graph.Executor{}
	for i := 0; i < 3; i++ { // warm plan, arena, pools
		if _, err := e.Run(g, in); err != nil {
			t.Fatal(err)
		}
	}
	prog := graph.ProgramOf(e)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.Run(g, in); err != nil {
			t.Fatal(err)
		}
	})
	if graph.ProgramOf(e) != prog {
		t.Error("a later Run on the same executor and graph compiled a new program")
	}
	if allocs > 8 {
		t.Errorf("pooled steady state = %.0f allocs/op, want <= 8; the executor is building per-run state again", allocs)
	}
}

// TestBenchmarkGraphDispatchCounts pins, in tier 1, the two graphs the
// repository benchmark streams: per forward pass MobileNet-v2 at O2
// dispatches 53 FP32 conv/dense kernels, 52 of them fused, and
// SqueezeNet at O2 quantized to int8 dispatches 26 int8 kernels, all
// fused — and in both a serving engine's counts are runs times those.
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
			int8, fp32, fused := checkEngineCounts(t, zooGraph(t, c.model, c.level))
			if fp32 != c.fp32 || int8 != c.int8 || fused != c.fused {
				t.Errorf("dispatches per run fp32/int8/fused = %d/%d/%d, want %d/%d/%d",
					fp32, int8, fused, c.fp32, c.int8, c.fused)
			}
		})
	}
}
