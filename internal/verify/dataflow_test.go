package verify_test

import (
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
	"edgebench/internal/verify"
)

// planCNN builds a materialized static CNN with a Flatten alias in the
// middle, so the plan checker's independent alias resolution is
// exercised on every run.
func planCNN(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("plan", nn.Options{Materialize: true, Seed: seed}, 3, 8, 8)
	b.ConvBNReLU("block1", 4, 3, 1, 1)
	b.MaxPool("pool1", 2, 2, 0)
	b.Conv2D("conv2", 8, 3, 1, 1, true)
	b.ReLU("relu2")
	b.Flatten("flat")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

func mustPlan(t *testing.T, g *graph.Graph) *graph.Plan {
	t.Helper()
	p, err := graph.PlanBuffers(g)
	if err != nil {
		t.Fatalf("PlanBuffers: %v", err)
	}
	return p
}

func TestCleanPlanVerifies(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := planCNN(t, seed)
		p := mustPlan(t, g)
		if diags := verify.CheckPlan(g, p); len(diags) != 0 {
			t.Fatalf("clean plan produced diagnostics: %v", diags)
		}
	}
}

// TestSeededPlanOverlapCaught is the acceptance case: a deliberately
// seeded overlap — a node reassigned into the slot of a buffer that is
// still live when it is defined — must be reported as plan-overlap.
func TestSeededPlanOverlapCaught(t *testing.T) {
	g := planCNN(t, 4)
	p := mustPlan(t, g)
	conv2 := node(t, g, "conv2")
	relu2 := node(t, g, "relu2")
	slot, ok := p.SlotOf(conv2)
	if !ok {
		t.Fatal("conv2 should be pooled")
	}
	if _, ok := p.SlotOf(relu2); !ok {
		t.Fatal("relu2 should be pooled")
	}
	// conv2's buffer is live until relu2 (its consumer) executes; giving
	// relu2 the same slot makes the kernel write its own input.
	p.Reassign(relu2, slot)
	diags := verify.CheckPlan(g, p)
	if !hasRule(diags, "plan-overlap") {
		t.Fatalf("seeded overlap not caught: %v", diags)
	}
	if verify.Err(diags) == nil {
		t.Fatal("plan overlap must be an error")
	}
}

func TestSeededSlotSizeMismatchCaught(t *testing.T) {
	g := planCNN(t, 5)
	p := mustPlan(t, g)
	conv2 := node(t, g, "conv2")
	fc := node(t, g, "fc")
	slot, ok := p.SlotOf(conv2)
	if !ok {
		t.Fatal("conv2 should be pooled")
	}
	if fc.OutShape.NumElems() == conv2.OutShape.NumElems() {
		t.Fatal("test graph needs differently sized buffers")
	}
	p.Reassign(fc, slot)
	if diags := verify.CheckPlan(g, p); !hasRule(diags, "plan-slot-size") {
		t.Fatalf("slot size mismatch not caught: %v", diags)
	}
}

func TestKeptOutputPooledCaught(t *testing.T) {
	g := planCNN(t, 6)
	p := mustPlan(t, g)
	p.Reassign(g.Output, 0)
	if diags := verify.CheckPlan(g, p); !hasRule(diags, "plan-kept") {
		t.Fatalf("pooled kept output not caught: %v", diags)
	}
}

func TestAliasNodePooledCaught(t *testing.T) {
	g := planCNN(t, 7)
	p := mustPlan(t, g)
	p.Reassign(node(t, g, "flat"), 0)
	if diags := verify.CheckPlan(g, p); !hasRule(diags, "plan-kept") {
		t.Fatalf("pooled alias node not caught: %v", diags)
	}
}

func TestCheckPlanRejectsMalformedGraph(t *testing.T) {
	g := planCNN(t, 8)
	p := mustPlan(t, g)
	node(t, g, "conv2").OutShape = tensor.Shape{1, 2, 3}
	diags := verify.CheckPlan(g, p)
	if len(verify.Errors(diags)) == 0 {
		t.Fatalf("malformed graph should fail plan checking: %v", diags)
	}
}

func TestQuantDomainsCleanOnQuantizedGraph(t *testing.T) {
	g := planCNN(t, 9)
	graph.QuantizeINT8(g)
	if diags := verify.CheckAll(g); len(verify.Errors(diags)) != 0 {
		t.Fatalf("uniformly quantized graph should be clean: %v", diags)
	}
}

func TestQuantBoundaryCaught(t *testing.T) {
	g := planCNN(t, 10)
	graph.QuantizeINT8(g)
	// Retype one weightless node back to FP32: both of its edges now
	// cross the int8/fp border with no boundary op.
	node(t, g, "relu2").DType = tensor.FP32
	diags := verify.CheckQuantDomains(g)
	if !hasRule(diags, "quant-boundary") {
		t.Fatalf("domain border crossing not caught: %v", diags)
	}
	if verify.Err(diags) == nil {
		t.Fatal("quant-boundary must be an error")
	}
}

// TestQuantExecCaught seeds the unexecutable-node case: int8 codes on an
// op the int8 kernels cannot run (grouped conv), with the dequantized
// FP32 shadow removed — neither execution path could run it.
func TestQuantExecCaught(t *testing.T) {
	g := planCNN(t, 11)
	graph.QuantizeINT8(g)
	conv2 := node(t, g, "conv2")
	if conv2.QWeights == nil {
		t.Fatal("quantization should have stored int8 codes on conv2")
	}
	conv2.Attrs.Groups = 2
	conv2.Weights = nil
	if diags := verify.CheckQuantDomains(g); !hasRule(diags, "quant-exec") {
		t.Fatalf("unexecutable int8 node not caught: %v", diags)
	}
}

func TestQuantCodesOutsideDomainCaught(t *testing.T) {
	g := planCNN(t, 12)
	conv2 := node(t, g, "conv2")
	// int8 codes stored while the node (and graph) stay in the fp
	// domain: a quantization pass that retyped only part of the graph.
	conv2.QWeights = tensor.ConvCodes(tensor.QuantizeSymmetric(conv2.Weights))
	if diags := verify.CheckQuantDomains(g); !hasRule(diags, "quant-codes") {
		t.Fatalf("codes outside the int8 domain not caught: %v", diags)
	}
}

func TestCheckedRunsPlanPass(t *testing.T) {
	// A pass that corrupts liveness-relevant structure on a static graph
	// must be caught by the plan leg of internal/opt's gate. Marking an
	// interior node as an extra output after planning assumptions is fine
	// for the structural rules, so corrupt the shape flow instead — the
	// gate's CheckAll leg already panics there; here we only pin that a
	// clean static pass still passes with the plan leg active.
	g := planCNN(t, 15)
	opt.FoldAndFuse(g)
	opt.EliminateDead(g)
	if diags := verify.CheckAll(g); len(verify.Errors(diags)) != 0 {
		t.Fatalf("pipeline left errors: %v", diags)
	}
}
