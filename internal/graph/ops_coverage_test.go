package graph_test

import (
	"strings"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/refexec"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

// TestEveryOpKindExecutes drives each operation kind through the
// executor and the cost model from within the graph package's own test
// suite: builder construction, shape inference, numeric execution, and
// per-node cost. Every op the reference interpreter implements is then
// checked against it, op by op, within the tolerance table; the 3-D ops
// it does not implement are an error that names the op.
func TestEveryOpKindExecutes(t *testing.T) {
	cases := []struct {
		name  string
		shape []int
		build func(b *nn.Builder)
	}{
		{"conv3d+pool3d", []int{2, 4, 6, 6}, func(b *nn.Builder) {
			b.Conv3D("c3", 3, 3, 1, 1, true)
			b.Tanh("t")
			b.MaxPool3DAsym("p3", 1, 2, 1, 2, 0)
			b.Flatten("f")
			b.Dense("fc", 4, true)
		}},
		{"upsample+pad+leaky", []int{2, 5, 5}, func(b *nn.Builder) {
			b.Conv2D("c", 3, 3, 1, 1, false)
			b.LeakyReLU("lk", 0.1)
			b.Upsample("up", 2)
			b.Pad("pad", 1)
			b.AvgPool("ap", 2, 2, 0)
		}},
		{"lstm", []int{6, 5}, func(b *nn.Builder) {
			b.LSTM("l", 7, true)
			b.Dense("fc", 3, true)
			b.Softmax("p")
		}},
		{"shuffle+grouped", []int{6, 6, 6}, func(b *nn.Builder) {
			b.Conv2DG("g1", 6, 1, 1, 0, 3, true)
			b.Shuffle("sh", 3)
			b.Conv2DG("g2", 6, 3, 1, 1, 2, true)
			b.Sigmoid("s")
		}},
		{"rect+asym", []int{2, 7, 7}, func(b *nn.Builder) {
			b.Conv2DRect("r1", 4, 1, 5, 1, 0, 2, true)
			b.Conv2DRect("r2", 4, 5, 1, 1, 2, 0, true)
			b.ReLU6("r6")
			b.GlobalAvgPool("gap")
		}},
		{"softmax-midgraph", []int{1, 3, 3}, func(b *nn.Builder) {
			b.Flatten("f")
			b.Softmax("s1")
			b.Dense("fc", 4, true)
			b.Softmax("s2")
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			b := nn.NewBuilder(c.name, nn.Options{Materialize: true, Seed: 5}, c.shape...)
			c.build(b)
			g := b.Build()
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			in := tensor.New(c.shape...).Randomize(stats.NewRNG(6), 1)
			if _, err := (&graph.Executor{}).Run(g, in.Clone()); err != nil {
				t.Fatal(err)
			}
			// Every node must price without panicking, with non-negative
			// cost, and the total must be positive.
			var flops float64
			for _, n := range g.Nodes {
				cost := graph.NodeCost(n)
				if cost.FLOPs < 0 || cost.Bytes() < 0 {
					t.Fatalf("negative cost on %s", n)
				}
				flops += cost.FLOPs
			}
			if flops <= 0 {
				t.Fatal("graph should cost something")
			}
			vals, err := refexec.Run(g, in)
			if c.name == "conv3d+pool3d" {
				if err == nil || !strings.Contains(err.Error(), "conv3d") {
					t.Fatalf("oracle on a 3-D graph: err = %v, want one naming conv3d", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			checkOps(t, g, vals)
		})
	}
}

// TestDynamicModeReleasesIntermediates pins the define-by-run memory
// behaviour: a dynamic program drops every value but the input and the
// output once its last reader has run, and running it leaves the graph
// dynamic.
func TestDynamicModeReleasesIntermediates(t *testing.T) {
	b := nn.NewBuilder("dyn", nn.Options{Materialize: true, Seed: 8}, 2, 6, 6)
	b.Conv2D("c1", 4, 3, 1, 1, true)
	b.ReLU("r")
	b.Conv2D("c2", 2, 3, 1, 1, true)
	g := b.Build()
	g.Mode = graph.Dynamic
	out, err := (&graph.Executor{}).Run(g, tensor.New(2, 6, 6).Fill(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(tensor.Shape{2, 6, 6}) {
		t.Fatalf("output shape %v", out.Shape)
	}
	p, err := graph.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	freed := map[int]bool{}
	for _, s := range p.Steps() {
		for _, v := range s.Free {
			freed[v] = true
		}
	}
	for i, n := range g.Nodes {
		if kept := n == g.Input || n == g.Output; freed[i] == kept {
			t.Errorf("%s: released %v, want %v", n, freed[i], !kept)
		}
	}
	if g.Mode != graph.Dynamic {
		t.Fatal("Run must not touch the graph mode")
	}
}

func TestInferShapePanicsOnBadLSTM(t *testing.T) {
	g := graph.New("bad", 4, 3) // [T=4, F=3]
	defer func() {
		if recover() == nil {
			t.Fatal("incompatible LSTM weights should panic shape inference")
		}
	}()
	g.Add(&graph.Node{
		Kind:   graph.OpLSTM,
		WShape: tensor.Shape{8, 9}, // H=2 needs F+H=5, not 9
	})
}

func TestShuffleInferShapePanicsOnBadGroups(t *testing.T) {
	g := graph.New("bad", 5, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("indivisible shuffle groups should panic")
		}
	}()
	g.Add(&graph.Node{Kind: graph.OpShuffle, Attrs: graph.Attrs{Groups: 2}})
}
