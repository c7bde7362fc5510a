package graph_test

import (
	"strings"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
)

func TestDOTRendering(t *testing.T) {
	b := nn.NewBuilder("dotnet", nn.Options{}, 3, 8, 8)
	b.ConvBNReLU("blk", 4, 3, 1, 1)
	b.Dense("fc", 2, true)
	g := b.Build()
	graph.FoldBN(g)
	graph.FusePatterns(g)
	graph.Prune(0.5)(g)

	dot := g.DOT()
	for _, want := range []string{
		"digraph \"dotnet\"",
		"conv2d",
		"lightblue",   // input highlighted
		"lightyellow", // output highlighted
		"+bn",         // folded batch-norm marked
		"+relu",       // fused activation marked
		"50% sparse",  // pruning marked
		"->",
		"params",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Edges must reference declared nodes only.
	if strings.Count(dot, "digraph") != 1 || !strings.HasSuffix(dot, "}\n") {
		t.Fatal("malformed DOT document")
	}
}

func TestDOTRendersEpilogueFusedChain(t *testing.T) {
	// A pattern-fused node renders its whole absorbed chain
	// ("conv2d+bn+relu6") so the optimized topology stays inspectable.
	b := nn.NewBuilder("fuseddot", nn.Options{}, 3, 8, 8)
	b.Conv2D("conv", 4, 3, 1, 1, false)
	b.BatchNorm("bn")
	b.ReLU6("relu6")
	g := b.Build()
	graph.FusePatterns(g)
	dot := g.DOT()
	if !strings.Contains(dot, "conv2d+bn+relu6") {
		t.Fatalf("DOT output missing the fused chain label:\n%s", dot)
	}
	if strings.Contains(dot, "batchnorm") {
		t.Fatal("absorbed BN still rendered as its own node")
	}
}
