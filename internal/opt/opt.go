// Package opt is the graph compiler's pass manager: Optimize runs the
// level's optimization passes (pattern fusion, constant folding,
// identity and dead-node elimination) in a deterministic order to a
// fixpoint, and the lowering wrappers (FoldAndFuse, QuantizeINT8,
// CastFP16, ...) run one framework-lowering rewrite each. Every pass
// run goes through one gate, the full internal/verify rule catalog — an
// illegal rewrite surfaces as a structured *VerifyError naming the pass
// and the violated rules instead of a corrupted inference later.
//
// The package exists because internal/graph cannot import the verifier
// (verify already imports graph); opt sits above both and is the only
// sanctioned call site for graph rewrites outside internal/graph itself
// (edgelint's pass-verify rule enforces that). Opt levels mirror the
// familiar compiler convention: O0 leaves the graph untouched, O1 runs
// the always-safe cleanups (constant folding, identity and dead-node
// elimination), O2 adds pattern fusion, which collapses conv→BN→act
// chains into single fused-kernel dispatches while remaining bitwise
// identical to the unfused graph (the zoo equivalence suite pins this
// down across every model).
package opt

import (
	"fmt"
	"strings"

	"edgebench/internal/graph"
	"edgebench/internal/verify"
)

// pass is one graph rewrite under management: named for diagnostics
// and reporting, returning how many rewrites it made so the manager can
// iterate to fixpoint.
type pass struct {
	name string
	run  func(*graph.Graph) (int, error)
}

// VerifyError reports that a pass left the graph violating IR
// invariants. It carries the verifier's structured diagnostics so
// callers (and tests) can inspect which rules broke, not just that
// something did.
type VerifyError struct {
	Pass      string
	Iteration int
	Diags     []verify.Diagnostic
}

// Error summarizes the violation; the full diagnostic list is on Diags.
func (e *VerifyError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "opt: pass %s (iteration %d) broke %d IR invariant(s)", e.Pass, e.Iteration, len(e.Diags))
	for i, d := range e.Diags {
		if i == 3 {
			fmt.Fprintf(&b, "; and %d more", len(e.Diags)-i)
			break
		}
		b.WriteString("; ")
		b.WriteString(d.String())
	}
	return b.String()
}

// PassStat accumulates one pass's effect across fixpoint iterations.
type PassStat struct {
	Pass     string
	Rewrites int // total rewrites across runs
}

// Report summarizes one Optimize run: iteration count, whole-graph
// node/edge deltas, and per-pass stats in execution order.
type Report struct {
	Graph       string
	Level       Level
	Iterations  int
	NodesBefore int
	NodesAfter  int
	EdgesBefore int
	EdgesAfter  int
	Stats       []PassStat
}

// String renders the report as a short human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d -> %d nodes, %d -> %d edges, %d iteration(s)",
		r.Graph, r.NodesBefore, r.NodesAfter, r.EdgesBefore, r.EdgesAfter, r.Iterations)
	for _, s := range r.Stats {
		if s.Rewrites > 0 {
			fmt.Fprintf(&b, "; %s x%d", s.Pass, s.Rewrites)
		}
	}
	return b.String()
}

// TotalRewrites sums rewrites across all passes.
func (r *Report) TotalRewrites() int {
	total := 0
	for _, s := range r.Stats {
		total += s.Rewrites
	}
	return total
}

// maxIter bounds fixpoint iteration. Each iteration runs the full pass
// sequence once and iteration stops early when a whole sweep performs
// zero rewrites; real models converge in 2-3 sweeps, so the bound only
// guards against a pass that keeps "finding" work.
const maxIter = 10

// runPasses executes passes over g in order to a fixpoint — the order
// is part of the compiler's contract (cleanups expose fusion
// opportunities and vice versa) — verifying the graph after every pass
// run. It returns the accumulated report; on an invariant violation the
// error is a *VerifyError and the graph is left as the offending pass
// produced it (for postmortem inspection — do not execute it).
func runPasses(g *graph.Graph, passes []pass) (*Report, error) {
	r := &Report{
		Graph:       g.Name,
		NodesBefore: len(g.Nodes),
		EdgesBefore: countEdges(g),
	}
	stats := make([]PassStat, len(passes))
	for i, p := range passes {
		stats[i].Pass = p.name
	}
	// Gate the input graph before any pass runs, so pre-existing
	// breakage is attributed to the caller, not to the first pass.
	if diags := gate(g); len(diags) > 0 {
		return r, &VerifyError{Pass: "<input>", Iteration: 0, Diags: diags}
	}
	for iter := 1; iter <= maxIter; iter++ {
		r.Iterations = iter
		sweep := 0
		for i, p := range passes {
			n, err := p.run(g)
			if err != nil {
				return r, fmt.Errorf("opt: pass %s (iteration %d): %w", p.name, iter, err)
			}
			stats[i].Rewrites += n
			if diags := gate(g); len(diags) > 0 {
				return r, &VerifyError{Pass: p.name, Iteration: iter, Diags: diags}
			}
			sweep += n
		}
		if sweep == 0 {
			break
		}
	}
	r.NodesAfter = len(g.Nodes)
	r.EdgesAfter = countEdges(g)
	r.Stats = stats
	return r, nil
}

// gate re-proves the IR invariants after a pass: the full structural
// rule catalog, the quantization-domain dataflow walk, and — when the
// graph is static and already planar — a fresh buffer plan proven
// overlap-free. Only Error-severity diagnostics gate; warnings (dead
// nodes awaiting elimination later in the sequence) pass through.
func gate(g *graph.Graph) []verify.Diagnostic {
	diags := verify.CheckAll(g)
	if len(verify.Errors(diags)) == 0 && g.Mode == graph.Static {
		if plan, err := graph.PlanBuffers(g); err == nil {
			diags = append(diags, verify.CheckPlan(g, plan)...)
		}
	}
	return verify.Errors(diags)
}

func countEdges(g *graph.Graph) int {
	n := 0
	for _, node := range g.Nodes {
		n += len(node.Inputs)
	}
	return n
}

// Level selects how aggressively Optimize rewrites a graph.
type Level int

const (
	// O0 applies no passes: the graph executes exactly as built.
	O0 Level = iota
	// O1 applies the always-safe cleanups — constant folding, identity
	// elimination, dead-node elimination. Packing weights into the GEMM
	// panel layout is not a pass: every executor's compile does it.
	O1
	// O2 adds pattern fusion: conv→BN→activation and dense→activation
	// chains collapse into single fused-kernel dispatches, bitwise
	// identical to the unfused graph.
	O2
)

// String renders the level in compiler convention ("O2").
func (l Level) String() string {
	switch l {
	case O0:
		return "O0"
	case O1:
		return "O1"
	case O2:
		return "O2"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// ParseLevel parses "O0"/"O1"/"O2" (case-insensitive).
func ParseLevel(s string) (Level, error) {
	switch strings.ToUpper(s) {
	case "O0":
		return O0, nil
	case "O1":
		return O1, nil
	case "O2":
		return O2, nil
	}
	return O0, fmt.Errorf("opt: unknown optimization level %q (want O0, O1, or O2)", s)
}

// passes returns the pass sequence for a level, in execution order.
// Cleanups run before fusion so folded subgraphs and removed identities
// expose single-consumer chains; dead-node elimination runs last each
// sweep to collect what the other passes orphaned.
func (l Level) passes() []pass {
	switch l {
	case O1:
		return []pass{constantFolding, identityElimination, deadElimination}
	case O2:
		return []pass{constantFolding, identityElimination, patternFusion, deadElimination}
	}
	return nil
}

// Optimize runs the level's pass sequence over g to a fixpoint and
// returns the report. O0 verifies the graph once (a session must not
// accept a broken graph just because optimization was off) but runs no
// passes.
func Optimize(g *graph.Graph, level Level) (*Report, error) {
	r, err := runPasses(g, level.passes())
	r.Level = level
	return r, err
}
