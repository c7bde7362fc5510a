package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"edgebench/internal/graph"
)

// TestCommittedLayerTable checks the committed BENCH_layers.json against
// the schema -layers writes, without timing anything: it parses, holds
// the three benchmark models at every GOMAXPROCS with a roofline for
// each, records the host fingerprint, and each model's step p50s add up
// to its forward p50 within the tolerance -layers enforces.
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
	if tab.Runs < 30 {
		t.Errorf("runs = %d, want >= 30", tab.Runs)
	}
	if len(tab.Roof) != len(layerProcs) {
		t.Fatalf("%d rooflines, want one per GOMAXPROCS in %v", len(tab.Roof), layerProcs)
	}
	for i, r := range tab.Roof {
		if r.Procs != layerProcs[i] || r.FMUL <= 0 || r.IMUL <= 0 || r.Int8 <= 0 || r.Copy <= 0 {
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
		}
	}
}

// TestPlanPrintsEveryStep runs -plan's printer on CifarNet: a header,
// a column line and one line per compiled step.
func TestPlanPrintsEveryStep(t *testing.T) {
	g, err := buildServed("CifarNet", false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := graph.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printPlan(&out, g, p.Steps())
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2+len(p.Steps()) || !strings.Contains(lines[len(lines)-1], "prob") {
		t.Fatalf("plan has %d lines for %d steps:\n%s", len(lines), len(p.Steps()), out.String())
	}
}
