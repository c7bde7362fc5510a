package model_test

import (
	"testing"

	"edgebench/internal/device"
	"edgebench/internal/framework"
	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/verify"
)

// TestZooConformance builds every registered model — Table I plus the
// extensions — and requires the structural graph to verify with zero
// diagnostics. The zoo is the input to every experiment; a model that
// fails any verifier rule would poison every measurement that uses it.
func TestZooConformance(t *testing.T) {
	specs := model.AllWithExtensions()
	if len(specs) == 0 {
		t.Fatal("empty model zoo")
	}
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			g := spec.Build(nn.Options{})
			if diags := verify.Check(g); len(diags) != 0 {
				t.Fatalf("%s: %d diagnostics: %v", spec.Name, len(diags), diags)
			}
		})
	}
}

// TestZooLoweredConformance lowers every model through every framework's
// real optimization pipeline for a representative device and verifies
// the result. This is the graph a Session prices, so pass bugs that
// only trigger on a particular model topology surface here.
func TestZooLoweredConformance(t *testing.T) {
	dev, ok := device.Get("JetsonTX2")
	if !ok {
		devs := device.All()
		if len(devs) == 0 {
			t.Fatal("empty device registry")
		}
		dev = devs[0]
	}
	for _, spec := range model.AllWithExtensions() {
		g := spec.Build(nn.Options{})
		for _, fw := range framework.All() {
			lowered := fw.Lower(g.Clone(), dev)
			if err := verify.Err(verify.Check(lowered)); err != nil {
				t.Errorf("%s lowered by %s: %v", spec.Name, fw.Name, err)
			}
		}
	}
}

// TestZooPassConformance applies each lowering pass to every model's
// structural graph through its gated internal/opt wrapper, so an
// invariant break names both the model and the pass.
func TestZooPassConformance(t *testing.T) {
	passes := []struct {
		name string
		pass func(*graph.Graph)
	}{
		{"FoldAndFuse", opt.FoldAndFuse},
		{"EliminateDead", opt.EliminateDead},
		{"QuantizeINT8", opt.QuantizeINT8},
		{"CastFP16", opt.CastFP16},
	}
	for _, spec := range model.AllWithExtensions() {
		g := spec.Build(nn.Options{})
		for _, p := range passes {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s + %s: %v", spec.Name, p.name, r)
					}
				}()
				p.pass(g.Clone())
			}()
		}
	}
}
