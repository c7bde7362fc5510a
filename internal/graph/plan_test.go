package graph_test

import (
	"math"
	"strings"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/tensor"
	"edgebench/internal/verify"
)

// branchyCNN builds a materialized graph exercising every planner hazard:
// an Inception-style concat fan-out, a residual Add whose left arm is
// longer than its right, and a Flatten alias feeding a Dense while a
// second branch still reads the flattened buffer's storage.
func branchyCNN(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("branchy", nn.Options{Materialize: true, Seed: seed}, 3, 16, 16)
	stem := b.ConvBNReLU("stem", 8, 3, 1, 1)
	// Inception-style branches off the stem.
	br1 := b.From(stem).Conv2D("br1", 8, 1, 1, 0, true)
	br2a := b.From(stem).Conv2D("br2a", 8, 3, 1, 1, true)
	b.ReLU("br2a_relu")
	br2 := b.Conv2D("br2b", 8, 3, 1, 1, true)
	_ = br2a
	br3 := b.From(stem).MaxPool("br3", 3, 1, 1)
	cat := b.Concat("cat", br1, br2, br3)
	// Residual arm: identity vs conv path.
	arm := b.From(cat).Conv2D("arm1", 24, 3, 1, 1, true)
	b.ReLU("arm_relu")
	arm2 := b.Conv2D("arm2", 24, 3, 1, 1, true)
	_ = arm
	sum := b.Add("residual", cat, arm2)
	b.From(sum).GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

// flattenAliasCNN stresses the alias hazard: conv1's buffer is viewed by
// Flatten and must stay live until the Dense consumer reads the view,
// even though another branch (the Extra output) already consumed conv1.
func flattenAliasCNN(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("alias", nn.Options{Materialize: true, Seed: seed}, 3, 8, 8)
	conv1 := b.Conv2D("conv1", 4, 3, 1, 1, true)
	side := b.From(conv1).Conv2D("side", 4, 3, 1, 1, true)
	b.MarkOutput(side)
	b.From(conv1).Flatten("flat")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

func TestPlanBuffersSlotReuse(t *testing.T) {
	// A pure chain of same-shape ops needs exactly two slots: producer
	// and consumer ping-pong.
	b := nn.NewBuilder("chain", nn.Options{Materialize: true, Seed: 1}, 4, 8, 8)
	b.Conv2D("c1", 4, 3, 1, 1, true)
	b.ReLU("r1")
	b.Conv2D("c2", 4, 3, 1, 1, true)
	b.ReLU("r2")
	b.Conv2D("c3", 4, 3, 1, 1, true)
	b.ReLU("r3")
	b.Conv2D("c4", 4, 3, 1, 1, true)
	g := b.Build()
	plan, err := graph.PlanBuffers(g)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSlots() != 2 {
		t.Errorf("chain plan uses %d slots (%v), want 2", plan.NumSlots(), plan.Slots)
	}
	if plan.ArenaBytes() != 2*4*8*8*4 {
		t.Errorf("arena bytes = %d", plan.ArenaBytes())
	}
	if plan.PeakBytes <= 0 {
		t.Error("peak bytes not computed")
	}
}

func TestPlanBuffersRejectsDynamic(t *testing.T) {
	g := smallCNN(t, 1)
	g.Mode = graph.Dynamic
	if _, err := graph.PlanBuffers(g); err == nil || !strings.Contains(err.Error(), "dynamic") {
		t.Fatalf("dynamic graph must be rejected, got %v", err)
	}
}

func TestPlanBuffersKeepsRootsUnpooled(t *testing.T) {
	g := flattenAliasCNN(t, 2)
	plan, err := graph.PlanBuffers(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range g.Roots() {
		if _, ok := plan.SlotOf(root); ok {
			t.Errorf("root %s assigned an arena slot; kept outputs must not recycle", root)
		}
		if !plan.Kept(root) {
			t.Errorf("root %s not marked kept", root)
		}
	}
	if _, ok := plan.SlotOf(g.Input); ok {
		t.Error("graph input must never be pooled")
	}
}

// TestPlanVerifiesZooGraphs is covered per-model in internal/model; here
// we pin that planning itself never mutates the graph: verify stays clean
// after PlanBuffers.
func TestPlanBuffersLeavesGraphVerified(t *testing.T) {
	g := branchyCNN(t, 3)
	if diags := verify.Check(g); len(diags) != 0 {
		t.Fatalf("pre-plan diagnostics: %v", diags)
	}
	if _, err := graph.PlanBuffers(g); err != nil {
		t.Fatal(err)
	}
	if diags := verify.Check(g); len(diags) != 0 {
		t.Fatalf("post-plan diagnostics: %v", diags)
	}
}

// runVariants executes static g on the arena and checks outputs match a
// run of its dynamic copy on fresh buffers bitwise. The arena executor
// runs three times so later passes consume recycled (dirty) buffers.
func runVariants(t *testing.T, g *graph.Graph, in *tensor.Tensor) {
	t.Helper()
	ref, err := (&graph.Executor{}).Run(dynamicClone(g), in)
	if err != nil {
		t.Fatal(err)
	}
	e := &graph.Executor{}
	for pass := 0; pass < 3; pass++ {
		got, err := e.Run(g, in)
		if err != nil {
			t.Fatalf("pooled pass %d: %v", pass, err)
		}
		if !got.Shape.Equal(ref.Shape) {
			t.Fatalf("pooled pass %d: shape %v, want %v", pass, got.Shape, ref.Shape)
		}
		for i := range ref.Data {
			if got.Data[i] != ref.Data[i] {
				t.Fatalf("pooled pass %d: out[%d] = %v, want %v", pass, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

func TestExecutorVariantsEquivalentOnBranchyGraph(t *testing.T) {
	g := branchyCNN(t, 7)
	in := tensor.New(3, 16, 16)
	fillDeterministic(in)
	runVariants(t, g, in)
}

func TestExecutorVariantsEquivalentOnAliasGraph(t *testing.T) {
	g := flattenAliasCNN(t, 8)
	in := tensor.New(3, 8, 8)
	fillDeterministic(in)
	runVariants(t, g, in)
	// The Extra output is a kept root, which Run does not return: the
	// same variants with it as the output check its value on the arena.
	side := g.Clone()
	for _, n := range side.Nodes {
		if n.Name == "side" {
			side.Output = n
		}
	}
	runVariants(t, side, in)
}

// TestPooledExecutorReusesArena pins the planner's win: after the first
// pass, repeated inference performs zero pool misses (every intermediate
// comes from the arena) and the executor's outputs stay immutable —
// the previous pass's returned tensor is not overwritten.
func TestPooledExecutorReusesArena(t *testing.T) {
	g := branchyCNN(t, 9)
	in := tensor.New(3, 16, 16)
	fillDeterministic(in)
	e := &graph.Executor{}
	first, err := e.Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float32(nil), first.Data...)
	misses0 := e.PoolStats().Misses
	for i := 0; i < 3; i++ {
		if _, err := e.Run(g, in); err != nil {
			t.Fatal(err)
		}
	}
	st := e.PoolStats()
	if st.Misses != misses0 {
		t.Errorf("steady-state pool misses grew from %d to %d; arena not reused", misses0, st.Misses)
	}
	if st.Gets <= misses0 {
		t.Errorf("pool stats %+v: expected hits on repeated runs", st)
	}
	for i := range snapshot {
		if first.Data[i] != snapshot[i] {
			t.Fatalf("first run's output mutated at %d: caller-visible tensor recycled", i)
		}
	}
}

// TestGraphModeDecidesArena: a zero-value executor pools exactly when the
// graph is static. Two runs of a static graph draw from the arena, the
// second without a miss; a dynamic graph never touches it.
func TestGraphModeDecidesArena(t *testing.T) {
	g := branchyCNN(t, 10)
	in := tensor.New(3, 16, 16)
	fillDeterministic(in)
	e := &graph.Executor{}
	if _, err := e.Run(g, in); err != nil {
		t.Fatal(err)
	}
	misses := e.PoolStats().Misses
	if _, err := e.Run(g, in); err != nil {
		t.Fatal(err)
	}
	if st := e.PoolStats(); st.Gets == 0 || st.Misses != misses {
		t.Errorf("static graph: pool stats %+v after two runs (%d misses after the first), want gets and no new misses", st, misses)
	}
	d := &graph.Executor{}
	for run := 0; run < 2; run++ {
		if _, err := d.Run(dynamicClone(g), in); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.PoolStats(); st != (tensor.PoolStats{}) {
		t.Errorf("dynamic graph: pool stats %+v, want the arena untouched", st)
	}
}

// TestShardPanicBecomesNodeError: a kernel that panics inside a sharded
// loop does so on whichever goroutine claimed the bad chunk, usually a
// pool worker that evalNode's recover guard is not on the stack of. The
// pool must carry the panic back to the calling goroutine so Run returns
// a "kernel panic:" error naming the node, and later runs still work.
func TestShardPanicBecomesNodeError(t *testing.T) {
	b := nn.NewBuilder("dw", nn.Options{Materialize: true, Seed: 12}, 32, 64, 64)
	victim := b.DepthwiseConv2D("dw1", 3, 1, 1, true)
	g := b.Build()
	if victim.OutShape.NumElems()*9 < tensor.ParallelThresholdMACs() {
		t.Fatal("test layer too small to shard")
	}
	in := tensor.New(32, 64, 64).Fill(0.5)
	want, err := (&graph.Executor{}).Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	// Drop the upper channels' taps: shards over the lower channels run
	// clean, shards over the upper ones index past the end.
	full := victim.Weights.Data
	victim.Weights.Data = full[: len(full)/2 : len(full)/2]
	for _, mode := range []graph.Mode{graph.Dynamic, graph.Static} {
		g.Mode = mode
		_, err := (&graph.Executor{}).Run(g, in)
		if err == nil || !strings.Contains(err.Error(), "kernel panic:") || !strings.Contains(err.Error(), victim.Name) {
			t.Fatalf("%v Run with truncated weights: err = %v, want a kernel panic naming %s", mode, err, victim.Name)
		}
	}
	victim.Weights.Data = full
	got, err := (&graph.Executor{}).Run(g, in)
	if err != nil {
		t.Fatalf("Run after the contained panic: %v", err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("output %d differs after the contained panic", i)
		}
	}
}

func fillDeterministic(t *tensor.Tensor) {
	for i := range t.Data {
		t.Data[i] = float32(math.Sin(float64(i))) * 0.5
	}
}
