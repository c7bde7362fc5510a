// Command modelzoo prints the Table I model inventory with measured
// FLOP/parameter totals and the Figure 1 compute-intensity ordering.
//
// With -analyze it instead runs the static dataflow verifiers over
// every zoo model (Table I plus extensions): the structural rule
// catalog, the quant-domain walk, and — for static graphs — the
// buffer-plan aliasing proof over a freshly computed plan. Any
// Error-severity finding exits nonzero, which is how `make analyze`
// gates the model zoo.
//
// With -opt O1|O2 it runs the graph compiler over every zoo model at
// the given level and prints the per-model pass report: node and edge
// counts before/after, fixpoint iterations, and per-pass rewrite
// totals. A model whose optimization fails verification exits nonzero.
//
// With -layers FILE it writes the per-layer table (layers.go): the
// benchmark's three models timed step by step through the executor's
// step observer, against rooflines probed in the same process. With
// -plan MODEL it prints the compiled schedule of one model.
package main

import (
	"flag"
	"fmt"
	"os"

	"edgebench/internal/graph"
	"edgebench/internal/harness"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/verify"
)

func main() {
	sorted := flag.Bool("by-intensity", false, "sort by FLOP/parameter (paper Fig. 1)")
	analyze := flag.Bool("analyze", false, "run the dataflow verifiers over every zoo model; nonzero exit on findings")
	optLevel := flag.String("opt", "", "optimize every zoo model at this level (O0, O1, O2) and print per-model pass reports")
	layers := flag.String("layers", "", "time the benchmark's three models step by step against probed rooflines; write the table to this JSON file")
	plan := flag.String("plan", "", "print the compiled schedule (Program.Steps) of this zoo model at O2 FP32")
	flag.Parse()

	if *layers != "" {
		os.Exit(runLayers(os.Stdout, *layers))
	}
	if *plan != "" {
		os.Exit(runPlan(os.Stdout, *plan))
	}

	if *analyze {
		os.Exit(runAnalyze(os.Stdout))
	}
	if *optLevel != "" {
		level, err := opt.ParseLevel(*optLevel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "modelzoo:", err)
			os.Exit(1)
		}
		os.Exit(runOpt(os.Stdout, level))
	}

	run := harness.TableI
	if *sorted {
		run = harness.Figure1
	}
	rep, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelzoo:", err)
		os.Exit(1)
	}
	fmt.Println(rep)
}

// runAnalyze checks every registered model (structural build — the
// verifiers reason over shapes, dtypes, and liveness, none of which
// need weight data) and returns the process exit code: 0 only when the
// whole zoo is clean of Error-severity diagnostics.
func runAnalyze(w *os.File) int {
	failed := 0
	for _, s := range model.AllWithExtensions() {
		g := s.Build(nn.Options{})
		diags := verify.CheckAll(g)
		planNote := "dynamic graph, no plan"
		if len(verify.Errors(diags)) == 0 && g.Mode == graph.Static {
			plan, err := graph.PlanBuffers(g)
			if err != nil {
				planNote = "unplannable: " + err.Error()
			} else {
				diags = append(diags, verify.CheckPlan(g, plan)...)
				planNote = fmt.Sprintf("plan proved overlap-free (%d arena slots)", len(plan.Slots))
			}
		}
		errs := verify.Errors(diags)
		if len(errs) > 0 {
			failed++
			fmt.Fprintf(w, "FAIL %-18s %d finding(s)\n", s.Name, len(errs))
			for _, d := range errs {
				fmt.Fprintf(w, "     %s\n", d)
			}
			continue
		}
		fmt.Fprintf(w, "ok   %-18s %3d nodes, %s\n", s.Name, len(g.Nodes), planNote)
	}
	if failed > 0 {
		fmt.Fprintf(w, "analyze: %d model(s) failed dataflow verification\n", failed)
		return 1
	}
	return 0
}

// runOpt optimizes every registered model (structural build — pattern
// fusion, identity elimination, and dead-node removal reason over graph
// shape alone; constant folding simply finds nothing to fold without
// weights) and prints one pass report per model. Exit code is nonzero
// when any model fails a pass or its post-pass verification gate.
func runOpt(w *os.File, level opt.Level) int {
	failed := 0
	for _, s := range model.AllWithExtensions() {
		g := s.Build(nn.Options{})
		before := len(g.Nodes)
		rep, err := opt.Optimize(g, level)
		if err != nil {
			failed++
			fmt.Fprintf(w, "FAIL %-18s %s\n", s.Name, err)
			continue
		}
		fmt.Fprintf(w, "ok   %-18s %3d -> %3d nodes", s.Name, before, len(g.Nodes))
		for _, st := range rep.Stats {
			if st.Rewrites > 0 {
				fmt.Fprintf(w, "  %s:%d", st.Pass, st.Rewrites)
			}
		}
		fmt.Fprintln(w)
	}
	if failed > 0 {
		fmt.Fprintf(w, "opt: %d model(s) failed optimization at %s\n", failed, level)
		return 1
	}
	return 0
}
