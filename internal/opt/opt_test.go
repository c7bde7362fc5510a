package opt

import (
	"errors"
	"strings"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/tensor"
	"edgebench/internal/verify"
)

func convBNReLUNet(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("net", nn.Options{Materialize: true, Seed: seed}, 3, 8, 8)
	b.ConvBNReLU("block1", 4, 3, 1, 1)
	b.ConvBNReLU("block2", 8, 3, 2, 1)
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

func TestOptimizeO2FusesAndConverges(t *testing.T) {
	g := convBNReLUNet(t, 1)
	before := len(g.Nodes)
	rep, err := Optimize(g, O2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Level != O2 {
		t.Fatalf("report level %s, want O2", rep.Level)
	}
	if rep.NodesBefore != before || rep.NodesAfter != len(g.Nodes) {
		t.Fatalf("report node counts %d -> %d, graph %d -> %d",
			rep.NodesBefore, rep.NodesAfter, before, len(g.Nodes))
	}
	if rep.NodesAfter >= rep.NodesBefore {
		t.Fatal("O2 removed no nodes from a Conv-BN-ReLU network")
	}
	if rep.TotalRewrites() == 0 {
		t.Fatal("report counts no rewrites")
	}
	var fusion *PassStat
	for i := range rep.Stats {
		if rep.Stats[i].Pass == "pattern-fusion" {
			fusion = &rep.Stats[i]
		}
	}
	if fusion == nil || fusion.Rewrites == 0 {
		t.Fatalf("pattern-fusion did no work: %+v", rep.Stats)
	}
	// Fixpoint: a second O2 run finds nothing left to do.
	rep2, err := Optimize(g, O2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.TotalRewrites() != 0 {
		t.Fatalf("second O2 run rewrote %d more times; fixpoint not reached", rep2.TotalRewrites())
	}
	if rep2.Iterations != 1 {
		t.Fatalf("converged graph took %d iterations, want 1", rep2.Iterations)
	}
	if !strings.Contains(rep.String(), "pattern-fusion") {
		t.Fatalf("report %q does not mention the working pass", rep)
	}
}

func TestOptimizeO0IsIdentityButVerifies(t *testing.T) {
	g := convBNReLUNet(t, 2)
	before := len(g.Nodes)
	rep, err := Optimize(g, O0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != before || rep.TotalRewrites() != 0 {
		t.Fatal("O0 must not touch the graph")
	}
	// O0 still gates the input graph: a corrupted graph is rejected even
	// with optimization off.
	bad := convBNReLUNet(t, 3)
	bad.Nodes[1].OutShape[0]++
	_, err = Optimize(bad, O0)
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("corrupted input at O0 returned %v, want *VerifyError", err)
	}
	if ve.Pass != "<input>" {
		t.Fatalf("violation attributed to %q, want the input gate", ve.Pass)
	}
}

func TestOptimizeO1SkipsFusion(t *testing.T) {
	g := convBNReLUNet(t, 4)
	rep, err := Optimize(g, O1)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range rep.Stats {
		if st.Pass == "pattern-fusion" {
			t.Fatal("O1 must not run pattern fusion")
		}
	}
	for _, n := range g.Nodes {
		if n.EpiChannels > 0 || n.Activation != 0 {
			t.Fatalf("O1 fused node %s", n)
		}
	}
}

// TestBrokenPassIsRejected is the adversarial legality test: a pass
// that grows a node's output shape without updating its consumers must
// be caught by the post-pass verify gate and surface as a structured
// *VerifyError naming the pass and the violated shape rule — never as
// a corrupted graph handed back to the executor.
func TestBrokenPassIsRejected(t *testing.T) {
	g := convBNReLUNet(t, 5)
	broken := pass{"break-shapes", func(g *graph.Graph) (int, error) {
		for _, n := range g.Nodes {
			if n.Kind == graph.OpConv2D {
				n.OutShape[0]++ // grow the conv's channel count in place
				return 1, nil
			}
		}
		return 0, nil
	}}
	_, err := runPasses(g, []pass{broken})
	if err == nil {
		t.Fatal("manager accepted a shape-breaking pass")
	}
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("error %v (%T) is not a *VerifyError", err, err)
	}
	if ve.Pass != "break-shapes" {
		t.Fatalf("violation attributed to pass %q, want break-shapes", ve.Pass)
	}
	if ve.Iteration != 1 {
		t.Fatalf("violation in iteration %d, want 1", ve.Iteration)
	}
	if len(ve.Diags) == 0 {
		t.Fatal("VerifyError carries no diagnostics")
	}
	found := false
	for _, d := range ve.Diags {
		if d.Severity != verify.Error {
			t.Fatalf("gate let a %s-severity diagnostic through: %s", d.Severity, d)
		}
		if d.Rule == "shape" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shape-rule diagnostic among %v", ve.Diags)
	}
	if !strings.Contains(ve.Error(), "break-shapes") {
		t.Fatalf("error string %q does not name the pass", ve.Error())
	}
}

// TestErroringPassIsWrapped: a pass returning a plain error is wrapped
// with pass name and iteration, distinct from a verify failure.
func TestErroringPassIsWrapped(t *testing.T) {
	g := convBNReLUNet(t, 6)
	boom := errors.New("boom")
	failing := pass{"failing", func(*graph.Graph) (int, error) { return 0, boom }}
	_, err := runPasses(g, []pass{failing})
	if !errors.Is(err, boom) {
		t.Fatalf("pass error not wrapped: %v", err)
	}
	var ve *VerifyError
	if errors.As(err, &ve) {
		t.Fatal("a pass's own error must not masquerade as a verify failure")
	}
	if !strings.Contains(err.Error(), "failing") {
		t.Fatalf("error %q does not name the pass", err)
	}
}

// TestFixpointBound: a pass that always reports work stops at maxIter
// instead of spinning.
func TestFixpointBound(t *testing.T) {
	g := convBNReLUNet(t, 7)
	runs := 0
	liar := pass{"liar", func(*graph.Graph) (int, error) {
		runs++
		return 1, nil // claims progress forever, changes nothing
	}}
	rep, err := runPasses(g, []pass{liar})
	if err != nil {
		t.Fatal(err)
	}
	if runs != maxIter || rep.Iterations != maxIter {
		t.Fatalf("ran %d times over %d iterations, want %d/%d", runs, rep.Iterations, maxIter, maxIter)
	}
}

// TestCheckedPanicsNamingPass: a lowering wrapper whose rewrite breaks
// an IR invariant panics through the gate, and the panic names the pass
// and the violated rule.
func TestCheckedPanicsNamingPass(t *testing.T) {
	g := convBNReLUNet(t, 9)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("checked should panic when the pass breaks invariants")
		}
		msg, _ := r.(string)
		if !strings.Contains(msg, "breaker") || !strings.Contains(msg, "shape") {
			t.Fatalf("panic %q does not name the pass and the shape rule", msg)
		}
	}()
	checked("breaker", g, func(g *graph.Graph) {
		g.Nodes[len(g.Nodes)-1].OutShape = tensor.Shape{9, 9, 9}
	})
}

func TestOptimizeBitEquivalence(t *testing.T) {
	g := convBNReLUNet(t, 8)
	in := tensor.New(3, 8, 8)
	for i := range in.Data {
		in.Data[i] = float32(i%17)/8 - 1
	}
	fresh := g.Clone()
	fresh.Mode = graph.Dynamic
	ref, err := (&graph.Executor{}).Run(fresh, in)
	if err != nil {
		t.Fatal(err)
	}
	og := g.Clone()
	if _, err := Optimize(og, O2); err != nil {
		t.Fatal(err)
	}
	got, err := (&graph.Executor{}).Run(og, in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Data {
		if got.Data[i] != ref.Data[i] {
			t.Fatalf("out[%d] = %v, want %v (O2 must be bitwise identical)", i, got.Data[i], ref.Data[i])
		}
	}
}

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
		ok   bool
	}{
		{"O0", O0, true},
		{"o1", O1, true},
		{"O2", O2, true},
		{"o2", O2, true},
		{"O3", O0, false},
		{"", O0, false},
		{"fast", O0, false},
	} {
		got, err := ParseLevel(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if O2.String() != "O2" || Level(7).String() != "Level(7)" {
		t.Fatalf("Level.String mismatch: %s/%s", O2, Level(7))
	}
}
