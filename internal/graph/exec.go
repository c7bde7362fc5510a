package graph

import (
	"fmt"

	"edgebench/internal/tensor"
)

// Executor evaluates a graph numerically over real tensors. It is the
// measured engine: serving.Engine, the HTTP server, the pipeline stages
// and the repository benchmark all run it, and their set-up and
// per-inference times on the host are what the paper's method is
// applied to (internal/core's analytic cost model prices the paper's
// boards).
//
// The first run on a graph compiles it (Compile) into a flat list of
// steps, each with its kernel already chosen and its weight panels
// already packed (bind.go); Run and RunValues walk that one list in graph
// order, so a graph gives the same bits however its buffers are
// placed. All parallelism is inside the kernels (tensor's worker pool)
// or across executors (serving.Engine's replicas): two inter-op
// schedules — a wavefront over independent branches and a batch-folded
// wide GEMM — were measured against this one and removed (EXPERIMENTS.md,
// "Mechanisms judged").
//
// The graph's Mode decides where intermediates live, not an option: a
// static graph's Run recycles them through a per-executor tensor.Pool
// arena across calls, as the buffer plan Compile built lays them out,
// reproducing the static-framework memory reuse the paper measures (the
// first Run builds the arena, or Reserve does without running); a
// dynamic graph allocates every intermediate and drops it after its last
// reader (define-by-run). The zero value is ready to use. An Executor is
// not safe for concurrent Run calls — use one per goroutine (see
// serving.Engine).
type Executor struct {
	// prog is the compiled form of the last graph run — shared with the
	// executor's siblings when NewExecutors made it — and f its own run
	// state, dropped on recompile.
	prog *Program
	f    *frame
}

// NewExecutors returns n executors sharing p — kernels and weight panels
// — each with its own frame and arena: the replicas of a serving engine
// or a pipeline stage. Each executor is still for one goroutine at a
// time; different ones may run concurrently.
func NewExecutors(p *Program, n int) []*Executor {
	exs := make([]*Executor, n)
	for i := range exs {
		exs[i] = &Executor{prog: p, f: newFrame(p)}
	}
	return exs
}

// RunValues evaluates g on input and returns the value of every node —
// the retain-all forward pass training needs (backpropagation reads each
// op's inputs). Nothing is released and nothing comes from the arena,
// whatever the graph's mode; the graph itself is only read, so other
// executors may run it at the same time.
func (e *Executor) RunValues(g *Graph, input *tensor.Tensor) (map[*Node]*tensor.Tensor, error) {
	f, err := e.forward(g, input, true)
	if err != nil {
		return nil, err
	}
	values := make(map[*Node]*tensor.Tensor, len(g.Nodes))
	for i, n := range g.Nodes {
		values[n] = f.vals[i]
	}
	clear(f.vals)
	return values, nil
}

// Run evaluates g on input and returns the output tensor. An
// intermediate is dropped as soon as every node reading it has executed
// (define-by-run memory behaviour), and on a static graph its buffer
// goes back to the arena.
func (e *Executor) Run(g *Graph, input *tensor.Tensor) (*tensor.Tensor, error) {
	f, err := e.forward(g, input, false)
	if err != nil {
		return nil, err
	}
	out := f.vals[e.prog.output]
	clear(f.vals)
	return out, nil
}

// Reserve readies the executor to Run g without running it, doing what
// a first Run does before its first step: compile g unless the executor
// holds its program (NewExecutors' shared one included) and, on a static
// graph only, build the arena from the plan's slots. It warms no cache,
// kernel-pool worker or scratch pool; only running does.
func (e *Executor) Reserve(g *Graph) error {
	_, err := e.prepare(g, true)
	return err
}

// PoolStats reports the arena's traffic counters; zero-valued until Run
// or Reserve has prepared a static graph.
func (e *Executor) PoolStats() tensor.PoolStats {
	if e.f == nil || e.f.arena == nil {
		return tensor.PoolStats{}
	}
	return e.f.arena.Stats()
}

// prepare readies the executor to run g: it compiles g unless the cached
// program is g's, and sets up the frame. pooled asks for arena-backed
// results; it is granted only where Compile built a plan.
func (e *Executor) prepare(g *Graph, pooled bool) (*Program, error) {
	if e.prog == nil || e.prog.g != g {
		p, err := Compile(g)
		if err != nil {
			return nil, err
		}
		e.prog, e.f = p, newFrame(p)
	}
	p, f := e.prog, e.f
	f.pooled = pooled && p.plan != nil
	if f.pooled && f.arena == nil {
		f.arena = tensor.NewPool()
		f.arena.Preallocate(p.plan.Slots...)
	}
	return p, nil
}

// forward runs input through the steps in graph (topological) order and
// returns the frame with its values in place. retain keeps every value
// alive (RunValues); otherwise each step's dead list is released as soon
// as the step has run. The caller clears the frame once it has taken
// what it needs.
func (e *Executor) forward(g *Graph, input *tensor.Tensor, retain bool) (*frame, error) {
	if input == nil {
		return nil, fmt.Errorf("graph %s: input is nil", g.Name)
	}
	if !input.Shape.Equal(g.Input.OutShape) {
		return nil, fmt.Errorf("graph %s: input shape %v, want %v", g.Name, input.Shape, g.Input.OutShape)
	}
	p, err := e.prepare(g, !retain)
	if err != nil {
		return nil, err
	}
	f := e.f
	f.vals[p.input] = input
	for i := range p.steps {
		s := &p.steps[i]
		if err := e.eval(p, f, s); err != nil {
			clear(f.vals)
			return nil, fmt.Errorf("graph %s: node %s: %w", g.Name, s.n, err)
		}
		if !retain {
			f.release(p, s.free)
		}
	}
	return f, nil
}

// eval runs one step and publishes its value. It is the only place a
// kernel is called. Conditions the static verifier prevents (shape
// mismatches) surface here as wrapped errors rather than panics, so a
// verifier miss degrades gracefully instead of crashing a whole sweep:
// the recover guard converts residual kernel panics from internal/tensor
// into errors.
func (e *Executor) eval(p *Program, f *frame, s *step) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel panic: %v", r)
		}
	}()
	in := f.args[:len(s.in)]
	for i, v := range s.in {
		in[i] = f.vals[v]
	}
	var dst *tensor.Tensor
	if s.k.dst {
		dst = f.alloc(p, s)
	}
	f.vals[s.out] = s.k.run(s.n, dst, in)
	clear(in)
	return nil
}
