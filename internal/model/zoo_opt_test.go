package model_test

import (
	"math"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
)

// TestZooOptStructural runs the O2 pass pipeline over every zoo model's
// structural graph: optimization must pass every verify gate, never grow
// the graph, and leave the MAC count untouched — MACs count contraction
// multiplies only, so fusing a BN into a conv epilogue or deleting an
// identity node must not move them. Structural graphs are cheap, so this
// covers the whole zoo unconditionally.
func TestZooOptStructural(t *testing.T) {
	for _, spec := range model.AllWithExtensions() {
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Build(nn.Options{})
			before := len(g.Nodes)
			macs := g.TotalCost().MACs
			rep, err := opt.Optimize(g, opt.O2)
			if err != nil {
				t.Fatalf("O2: %v", err)
			}
			if len(g.Nodes) > before {
				t.Fatalf("O2 grew the graph %d -> %d nodes", before, len(g.Nodes))
			}
			if got := g.TotalCost().MACs; got != macs {
				t.Fatalf("O2 changed MACs %v -> %v", macs, got)
			}
			if rep.NodesBefore != before || rep.NodesAfter != len(g.Nodes) {
				t.Fatalf("report node counts %d -> %d disagree with graph %d -> %d",
					rep.NodesBefore, rep.NodesAfter, before, len(g.Nodes))
			}
		})
	}
}

// TestZooOptEquivalence is the zoo-wide bit-equivalence gate for the
// graph compiler: for every materialized model under the compute budget,
// the O2-optimized graph (pattern fusion + cleanups, running through the
// fused FP32 kernels under the pooled executor) must produce bitwise
// identical outputs to the unoptimized graph under plain sequential
// execution. Under -race this doubles as the fused kernels' data-race
// gate over real model topologies.
func TestZooOptEquivalence(t *testing.T) {
	budget := execBudgetGF()
	if testing.Short() {
		budget = 0.05
	}
	ran, fusedAnywhere := 0, false
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
			// The reference runs unpacked weights, the O2 graph pre-packed
			// ones: the bitwise contract spans that difference too.
			want, err := (&graph.Executor{}).Run(g, in)
			if err != nil {
				t.Fatalf("unoptimized: %v", err)
			}
			og := g.Clone()
			rep, err := opt.Optimize(og, opt.O2)
			if err != nil {
				t.Fatalf("O2: %v", err)
			}
			ex := &graph.Executor{}
			for pass := 0; pass < 2; pass++ { // twice: arena recycling over fused dispatches
				got, err := ex.Run(og, in)
				if err != nil {
					t.Fatalf("O2 pass %d: %v", pass, err)
				}
				if !got.Shape.Equal(want.Shape) {
					t.Fatalf("O2 pass %d: shape %v, want %v", pass, got.Shape, want.Shape)
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("O2 pass %d: out[%d] = %v, want %v (bitwise mismatch)",
							pass, i, got.Data[i], want.Data[i])
					}
				}
			}
			if rep.TotalRewrites() > 0 {
				p, err := graph.Compile(og)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, fz := p.Counts(); fz == 0 {
					t.Fatalf("%s: O2 rewrote %d chains but dispatched no fused kernels",
						spec.Name, rep.TotalRewrites())
				}
				fusedAnywhere = true
			}
		})
	}
	if ran == 0 {
		t.Fatal("compute budget excluded every zoo model")
	}
	if !fusedAnywhere {
		t.Fatal("no model under the budget exercised a fused kernel")
	}
}
