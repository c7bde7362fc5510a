package core

import (
	"fmt"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
	"edgebench/internal/verify"
)

// Numeric execution on sessions. The analytic latency model prices a
// structural graph; Materialize swaps in the same lowering with real
// (seeded) weights so Infer can run actual forward passes through the
// execution engine — pooled buffer reuse for static-graph frameworks,
// eager release for define-by-run ones, mirroring the memory behaviour
// the latency model prices.

// Materialize rebuilds and re-lowers the session's graph with
// materialized weights (seeded, random — §VI-A fn.4: random weights are
// the standard performance-evaluation proxy) so Infer can execute it.
// Sessions created by NewFromGraph skip this when their graph already
// carries weights.
func (s *Session) Materialize(seed int64) error {
	if s.Model == nil {
		return fmt.Errorf("core: session has no model spec; pass an already-materialized graph to NewFromGraph instead")
	}
	g := s.Framework.Lower(s.Model.Build(nn.Options{Materialize: true, Seed: seed}), s.Device)
	if err := verify.Err(verify.Check(g)); err != nil {
		return fmt.Errorf("core: %s materialized for %s: %w", s.Model.Name, s.Device.Name, err)
	}
	s.lowered = g
	s.exec = nil
	return nil
}

// Optimize runs the graph compiler's pass sequence for the given level
// over the session's lowered graph — constant folding, identity and
// dead-node elimination, and (at O2) pattern fusion into single-dispatch
// fused kernels, each pass run gated by the IR verifier. A frozen graph
// stays frozen (no pass appends nodes), and the cached executor is
// dropped so the next Infer replans buffers over the optimized graph.
// Returns the pass manager's report.
func (s *Session) Optimize(level opt.Level) (*opt.Report, error) {
	r, err := opt.Optimize(s.lowered, level)
	if err != nil {
		return r, fmt.Errorf("core: optimizing %s at %s: %w", s.lowered.Name, level, err)
	}
	s.exec = nil
	return r, nil
}

// Infer executes one real single-batch forward pass through the lowered
// graph and returns the output tensor. The graph's mode decides memory
// behaviour: a static lowering runs on the planned buffer arena
// (allocation-free in steady state), a dynamic one define-by-run with
// eager release. The graph must carry materialized weights (Materialize,
// or a NewFromGraph session built from a materialized graph).
func (s *Session) Infer(in *tensor.Tensor) (*tensor.Tensor, error) {
	if s.exec == nil {
		s.exec = &graph.Executor{}
	}
	return s.exec.Run(s.lowered, in)
}
