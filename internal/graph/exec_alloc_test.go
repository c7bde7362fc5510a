//go:build !race

package graph_test

import (
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/tensor"
)

// TestParallelSteadyStateAllocs pins the steady-state allocation count
// of a pooled run on a branchy graph whose kernels shard over the worker
// pool: a compiled run builds no per-run maps or slices, and no kernel
// builds a closure or a shape check's expected shape, so what is left is
// the kept output tensor (3). Compiling allocates, so the bound also says
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
	if allocs > 3 {
		t.Errorf("pooled steady state = %.0f allocs/op, want <= 3; the executor is building per-run state again", allocs)
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

// steadyAllocs warms e on g with three runs and returns the allocations
// of a steady-state one.
func steadyAllocs(t *testing.T, e *graph.Executor, g *graph.Graph, in *tensor.Tensor) float64 {
	t.Helper()
	run := func() {
		if _, err := e.Run(g, in); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	return testing.AllocsPerRun(10, run)
}

// slotted counts the values of g's program that the plan gave a slot.
func slotted(e *graph.Executor) int {
	n := 0
	for _, s := range graph.ProgramOf(e).Steps() {
		if s.Slot >= 0 {
			n++
		}
	}
	return n
}

// TestPooledExecutorReusesArena pins the planner's win: the arena holds
// one buffer per planned slot, and a steady-state run allocates exactly
// what the same graph's define-by-run copy does less one tensor per
// planned value, so every planned value is written into its slot. The
// executor's outputs stay immutable: the previous run's returned tensor
// is not overwritten.
func TestPooledExecutorReusesArena(t *testing.T) {
	g := branchyCNN(t, 9)
	plan, err := graph.PlanBuffers(g)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(3, 16, 16)
	fillDeterministic(in)
	e := &graph.Executor{}
	first, err := e.Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float32(nil), first.Data...)
	static := steadyAllocs(t, e, g, in)
	if got := e.ArenaBuffers(); got != len(plan.Slots) {
		t.Errorf("arena holds %d buffers, want one per planned slot (%d)", got, len(plan.Slots))
	}
	dynamic := steadyAllocs(t, &graph.Executor{}, dynamicClone(g), in)
	var sink *tensor.Tensor
	perTensor := testing.AllocsPerRun(10, func() { sink = tensor.New(in.Shape...) })
	_ = sink
	if want := dynamic - perTensor*float64(slotted(e)); static != want {
		t.Errorf("steady state = %.0f allocs/op, want %.0f: define-by-run's %.0f less %.0f for each of %d planned values",
			static, want, dynamic, perTensor, slotted(e))
	}
	for i := range snapshot {
		if first.Data[i] != snapshot[i] {
			t.Fatalf("first run's output mutated at %d: caller-visible tensor recycled", i)
		}
	}
}

// TestGraphModeDecidesArena: a zero-value executor builds an arena
// exactly when the graph is static. A static graph's runs allocate less
// than its dynamic copy's; a dynamic graph's executor holds no arena.
func TestGraphModeDecidesArena(t *testing.T) {
	g := branchyCNN(t, 10)
	in := tensor.New(3, 16, 16)
	fillDeterministic(in)
	e := &graph.Executor{}
	static := steadyAllocs(t, e, g, in)
	if e.ArenaBuffers() == 0 {
		t.Error("static graph: no arena after running")
	}
	d := &graph.Executor{}
	dynamic := steadyAllocs(t, d, dynamicClone(g), in)
	if n := d.ArenaBuffers(); n != 0 {
		t.Errorf("dynamic graph: arena of %d buffers, want none", n)
	}
	if static >= dynamic {
		t.Errorf("static graph: %.0f allocs/op, want fewer than its dynamic copy's %.0f", static, dynamic)
	}
}

// unreadConvCNN builds a static chain, with an interior conv that no node
// reads and no root marks when unread is set.
func unreadConvCNN(t testing.TB, unread bool) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("unread", nn.Options{Materialize: true, Seed: 13}, 3, 8, 8)
	stem := b.Conv2D("stem", 4, 3, 1, 1, true)
	if unread {
		b.From(stem).Conv2D("unread", 4, 3, 1, 1, true)
	}
	b.From(stem).Conv2D("body", 4, 3, 1, 1, true)
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	return b.Build()
}

// TestUnreadNodeTakesNoSteadyAllocs: a value nothing reads is never
// released, yet it costs a steady-state run nothing, because its buffer
// is the slot the plan reserved for it — the graph allocates as much a
// run as the same graph without the node.
func TestUnreadNodeTakesNoSteadyAllocs(t *testing.T) {
	in := tensor.New(3, 8, 8)
	fillDeterministic(in)
	with := steadyAllocs(t, &graph.Executor{}, unreadConvCNN(t, true), in)
	without := steadyAllocs(t, &graph.Executor{}, unreadConvCNN(t, false), in)
	if with != without {
		t.Errorf("steady state with an unread conv = %.0f allocs/op, without it %.0f; want equal", with, without)
	}
}

// TestQuantizedDenseStepAllocatesNothing: an int8 dense layer — bind runs
// it as the 1x1 conv of its input's [In, 1, 1] view, on headers built per
// run — adds no allocation to a steady-state run of a static graph. At
// 100 x 40 000, an input long enough to shard the quantizer, the graph
// allocates as much a run as the same graph without the layer.
func TestQuantizedDenseStepAllocatesNothing(t *testing.T) {
	build := func(dense bool) *graph.Graph {
		b := nn.NewBuilder("qdense", nn.Options{Materialize: true, Seed: 17}, 40000)
		if dense {
			b.Dense("fc", 100, true)
		}
		b.Softmax("prob")
		g := b.Build()
		graph.QuantizeINT8(g)
		return g
	}
	in := tensor.New(40000)
	fillDeterministic(in)
	e := &graph.Executor{}
	with := steadyAllocs(t, e, build(true), in)
	if i8, _, _ := graph.ProgramOf(e).Counts(); i8 != 1 {
		t.Fatalf("int8 dispatches = %d, want 1 (fc)", i8)
	}
	if without := steadyAllocs(t, &graph.Executor{}, build(false), in); with != without {
		t.Errorf("steady state with the int8 dense layer = %.0f allocs/op, without it %.0f; want equal", with, without)
	}
}
