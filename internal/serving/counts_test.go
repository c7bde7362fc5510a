package serving

import (
	"testing"
	"time"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/tensor"
)

// TestDispatchCountsExact: an engine's dispatch counts are its successful
// runs — Warmup's one per engine, Infer's and InferBatch's alike — times
// its program's per-run Counts, read without borrowing a replica: exact
// while a request holds one, and unchanged after Close.
func TestDispatchCountsExact(t *testing.T) {
	// An int8 conv with a fused ReLU, an FP32 depthwise conv and an int8
	// dense head: every one of the three counts is nonzero.
	b := nn.NewBuilder("counts", nn.Options{Materialize: true, Seed: 9}, 3, 8, 8)
	b.Conv2D("conv", 8, 3, 1, 1, true)
	b.ReLU("relu")
	b.DepthwiseConv2D("dw", 3, 1, 1, true)
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	g := b.Build()
	graph.FusePatterns(g)
	graph.QuantizeINT8(g)
	p, err := graph.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	i8, f32, fz := p.Counts()
	if i8 == 0 || f32 == 0 || fz == 0 {
		t.Fatalf("program counts int8/fp32/fused = %d/%d/%d, want all nonzero", i8, f32, fz)
	}

	e, err := NewEngine(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Warmup(); err != nil {
		t.Fatal(err)
	}
	in := tensor.New(g.Input.OutShape...).Fill(0.25)
	const infers = 5
	for range infers {
		if _, err := e.Infer(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.InferBatch([]*tensor.Tensor{in, in}); err != nil {
		t.Fatal(err)
	}
	runs := int64(1 + infers + 2)
	want := [3]int64{runs * i8, runs * f32, runs * fz}

	t.Run("replica busy", func(t *testing.T) {
		busy := <-e.replicas // stands in for a request in flight
		defer func() { e.replicas <- busy }()
		if got := countsWithin(t, e); got != want {
			t.Fatalf("int8/fp32/fused = %v with one replica busy, want %v after %d runs", got, want, runs)
		}
	})
	t.Run("closed", func(t *testing.T) {
		e.Close()
		if got := countsWithin(t, e); got != want {
			t.Fatalf("int8/fp32/fused = %v after Close, want %v", got, want)
		}
	})
}

// countsWithin reads e's dispatch counts, failing the test if the read
// blocks.
func countsWithin(t *testing.T, e *Engine) [3]int64 {
	t.Helper()
	got := make(chan [3]int64, 1)
	go func() {
		i8, f32, fz := e.DispatchCounts()
		got <- [3]int64{i8, f32, fz}
	}()
	select {
	case c := <-got:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("DispatchCounts blocked")
		return [3]int64{}
	}
}
