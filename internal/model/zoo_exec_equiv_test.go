package model_test

import (
	"math"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/tensor"
	"edgebench/internal/verify"
)

// execBudgetGF bounds the per-model arithmetic cost of the execution
// equivalence suite: models above the budget are skipped (and logged) so
// `go test` stays fast and `go test -race` stays feasible despite the
// instrumented kernels.
func execBudgetGF() float64 {
	if raceEnabled {
		return 0.05
	}
	return 0.2
}

// TestZooPlanConformance runs the static memory planner over every zoo
// model's structural graph: planning must succeed, assign a slot to
// every node, and leave the graph verifier-clean (the planner is
// read-only). This is cheap — no numerics — so it covers the whole zoo
// unconditionally.
func TestZooPlanConformance(t *testing.T) {
	for _, spec := range model.AllWithExtensions() {
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Build(nn.Options{})
			if g.Mode != graph.Static {
				t.Skipf("%s builds a dynamic graph", spec.Name)
			}
			plan, err := graph.PlanBuffers(g)
			if err != nil {
				t.Fatalf("PlanBuffers(%s): %v", spec.Name, err)
			}
			if plan.NumSlots() == 0 {
				t.Fatalf("%s: plan assigned no arena slots", spec.Name)
			}
			if plan.ArenaBytes() <= 0 {
				t.Fatalf("%s: non-positive arena footprint", spec.Name)
			}
			if err := verify.Err(verify.Check(g)); err != nil {
				t.Fatalf("%s: graph no longer verifies after planning: %v", spec.Name, err)
			}
		})
	}
}

// TestZooExecEquivalence materializes every zoo model under the compute
// budget and checks its planned-arena run produces bitwise-identical
// outputs to a dynamic copy on fresh buffers — across repeated runs,
// so arena recycling is exercised. Under `-race` (see make race) this
// doubles as the sharded kernels' data-race gate over real model
// topologies: Inception branches, residual adds, depthwise chains, and
// recurrent tails.
func TestZooExecEquivalence(t *testing.T) {
	budget := execBudgetGF()
	if testing.Short() {
		budget = 0.05
	}
	ran := 0
	for _, spec := range model.AllWithExtensions() {
		if gf := spec.GFLOPs(); gf > budget {
			t.Logf("skipping %s: %.2f GFLOPs over the %.2f budget", spec.Name, gf, budget)
			continue
		}
		ran++
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Build(nn.Options{Materialize: true, Seed: 99})
			in := tensor.New(g.Input.OutShape...)
			for i := range in.Data {
				in.Data[i] = float32(math.Sin(float64(i)*0.7)) * 0.5
			}
			fresh := g.Clone()
			fresh.Mode = graph.Dynamic
			want, err := (&graph.Executor{}).Run(fresh, in)
			if err != nil {
				t.Fatalf("fresh buffers: %v", err)
			}
			pooled := &graph.Executor{}
			for pass := 0; pass < 2; pass++ {
				got, err := pooled.Run(g, in)
				if err != nil {
					t.Fatalf("pooled pass %d: %v", pass, err)
				}
				if !got.Shape.Equal(want.Shape) {
					t.Fatalf("pooled pass %d: shape %v, want %v", pass, got.Shape, want.Shape)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("pooled pass %d: out[%d] = %v, want %v", pass, i, got.Data[i], want.Data[i])
					}
				}
			}
		})
	}
	if ran == 0 {
		t.Fatal("compute budget excluded every zoo model")
	}
}
