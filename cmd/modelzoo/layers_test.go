package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"edgebench/internal/graph"
)

// TestCommittedLayerTable checks the committed BENCH_layers.json against
// the schema -layers writes, without timing anything: it parses, holds
// the three benchmark models at every GOMAXPROCS with a roofline for
// each (both eight-lane roofs probed, or neither), records the host fingerprint and the host's noise while it was
// measured — steal, the one-core FMUL and copy roofs and the two-core
// FMUL roof before and after the forwards, and the two-core roof's
// scaling on the one-core one, and the same for the eight-lane roof —
// with the contended verdict its own numbers give, every step read
// against the vector roof an FP32 conv or depthwise conv whose kernel
// names the vector body, every int8 step whose kernel names it against
// the int8 vector roof and every other int8 step against the IMUL one,
// with those roofs probed, and each model's step
// p50s add up to its forward p50 within the tolerance -layers enforces.
func TestCommittedLayerTable(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var tab layerTable
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tab); err != nil {
		t.Fatalf("BENCH_layers.json: %v", err)
	}
	if h := tab.Host; h.CPU == "" || h.NumCPU < 1 || !strings.HasPrefix(h.Go, "go") || h.OS == "" || h.Arch == "" {
		t.Errorf("host fingerprint incomplete: %+v", h)
	}
	if n := tab.Noise; n.WallS <= 0 || n.StealTicks < 0 || n.FMULBefore <= 0 || n.FMULAfter <= 0 ||
		n.CopyBefore <= 0 || n.CopyAfter <= 0 || n.Bar == "" || n.Contended != n.contended() ||
		math.Abs(n.CopyDrift-math.Abs(n.CopyAfter/n.CopyBefore-1)) > 1e-9 ||
		n.FMUL2Before <= 0 || n.FMUL2After <= 0 || math.Abs(n.Drift2-math.Abs(n.FMUL2After/n.FMUL2Before-1)) > 1e-9 ||
		math.Abs(n.Scaling-n.FMUL2Before/n.FMULBefore) > 1e-9 ||
		math.Abs(n.VectorDrift-drift(n.VectorBefore, n.VectorAfter)) > 1e-9 ||
		math.Abs(n.VectorDrift2-drift(n.Vector2Before, n.Vector2After)) > 1e-9 ||
		(n.VectorBefore > 0) != (n.Vector2Before > 0) || (n.VectorBefore > 0) != (n.VectorAfter > 0) ||
		(n.VectorBefore > 0 && math.Abs(n.VectorScaling-n.Vector2Before/n.VectorBefore) > 1e-9) {
		t.Errorf("noise block incomplete or inconsistent: %+v", n)
	}
	if len(tab.Roof) == len(layerProcs) && (tab.Roof[0].FMUL != tab.Noise.FMULBefore || tab.Roof[1].FMUL != tab.Noise.FMUL2Before ||
		tab.Roof[0].FMULVector != tab.Noise.VectorBefore || tab.Roof[1].FMULVector != tab.Noise.Vector2Before) {
		t.Errorf("noise block's before-roofs are not the table's rooflines: %+v, %+v", tab.Noise, tab.Roof)
	}
	if tab.Runs < 30 {
		t.Errorf("runs = %d, want >= 30", tab.Runs)
	}
	if len(tab.Roof) != len(layerProcs) {
		t.Fatalf("%d rooflines, want one per GOMAXPROCS in %v", len(tab.Roof), layerProcs)
	}
	for i, r := range tab.Roof {
		if r.Procs != layerProcs[i] || r.FMUL <= 0 || r.IMUL <= 0 || r.Int8 <= 0 || r.Copy <= 0 || (r.QMACVector > 0) != (r.FMULVector > 0) {
			t.Errorf("roofline %d: %+v", i, r)
		}
	}
	if len(tab.Models) != len(layerModels) {
		t.Fatalf("%d models, want %d", len(tab.Models), len(layerModels))
	}
	for i, m := range tab.Models {
		want := layerModels[i]
		if m.Model != want.model || (m.DType == "int8") != want.int8 || m.Level != "O2" {
			t.Errorf("model %d: %s %s %s, want %s int8=%v O2", i, m.Model, m.Level, m.DType, want.model, want.int8)
		}
		if len(m.Forwards) != len(layerProcs) || len(m.Steps) == 0 {
			t.Fatalf("%s: %d forward rows, %d steps", m.Model, len(m.Forwards), len(m.Steps))
		}
		for _, f := range m.Forwards {
			if f.P50Ms <= 0 || f.AddUp < 1-layerAddUpTol || f.AddUp > 1+layerAddUpTol {
				t.Errorf("%s at GOMAXPROCS %d: forward p50 %.3f ms, add-up %.3f", m.Model, f.Procs, f.P50Ms, f.AddUp)
			}
		}
		for j, s := range m.Steps {
			if s.Step != j || s.Node == "" || s.Op == "" || len(s.Timing) != len(layerProcs) || s.BytesOut <= 0 {
				t.Errorf("%s step %d: %+v", m.Model, j, s)
			}
			if s.Roof == "fmul_vector" && (s.Op != graph.OpConv2D.String() && s.Op != graph.OpDepthwiseConv2D.String() ||
				!strings.HasSuffix(s.Kernel, ",avx2") ||
				tab.Roof[0].FMULVector <= 0 || tab.Roof[1].FMULVector <= 0) {
				t.Errorf("%s step %s reads against the vector roof as %s %q, rooflines %+v", m.Model, s.Node, s.Op, s.Kernel, tab.Roof)
			}
			if int8 := strings.Contains(s.Kernel, "int8"); int8 && (s.Roof == "int8_vector") != strings.HasSuffix(s.Kernel, ",avx2") ||
				int8 && s.Roof != "int8" && s.Roof != "int8_vector" || !int8 && strings.HasPrefix(s.Roof, "int8") ||
				s.Roof == "int8_vector" && (tab.Roof[0].QMACVector <= 0 || tab.Roof[1].QMACVector <= 0) {
				t.Errorf("%s step %s reads against the %s roof as %q, rooflines %+v", m.Model, s.Node, s.Roof, s.Kernel, tab.Roof)
			}
		}
	}
}

// TestPlanPrintsEveryStep runs -plan on SqueezeNet, which the layer table
// serves quantized: a header, a column line, one line per compiled step,
// and the footer totalling the graph's FP32 weights and int8 codes, which
// every kernel reads in place, neither of them zero.
func TestPlanPrintsEveryStep(t *testing.T) {
	var out bytes.Buffer
	if code := runPlan(&out, "SqueezeNet"); code != 0 {
		t.Fatalf("runPlan exit %d", code)
	}
	g, err := buildServed("SqueezeNet", true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := graph.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3+len(p.Steps()) || !strings.Contains(lines[len(lines)-2], "prob") {
		t.Fatalf("plan has %d lines for %d steps:\n%s", len(lines), len(p.Steps()), out.String())
	}
	weights, codes := 0, 0
	for _, n := range g.Nodes {
		if n.Weights != nil {
			weights += 4 * len(n.Weights.Data)
		}
		if n.QWeights != nil {
			codes += len(n.QWeights.Data)
		}
	}
	footer := fmt.Sprintf("graph weights: FP32 %d B, int8 codes %d B", weights, codes)
	if weights == 0 || codes == 0 || lines[len(lines)-1] != footer {
		t.Fatalf("plan footer %q, want %q", lines[len(lines)-1], footer)
	}
}
