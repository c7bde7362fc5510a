package graph

import (
	"fmt"
	"time"

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
// steps, each with its kernel already chosen and its int8 panels already
// packed (bind.go); Run walks that one list in graph order, so a
// graph gives the same bits however its buffers are placed. All
// parallelism is inside the kernels (tensor's worker pool) or across
// executors (serving.Engine's replicas): two inter-op schedules — a
// wavefront over independent branches and a batch-folded wide GEMM —
// were measured against this one and removed (EXPERIMENTS.md,
// "Mechanisms judged").
//
// The graph's Mode decides where intermediates live, not an option: on a
// static graph every planned value is written into the arena buffer of
// the slot the buffer plan gave it, one buffer per slot, reused across
// calls — the static-framework memory reuse the paper measures (the
// first Run builds the arena, or Reserve does without running); a
// dynamic graph allocates every intermediate and drops it after its last
// reader (define-by-run). The zero value is ready to use. An Executor is
// not safe for concurrent Run calls — use one per goroutine (see
// serving.Engine).
type Executor struct {
	// Observe, when set, is called after each step a run executes, with
	// what one row of a per-layer table needs: the step's index in
	// Program.Steps, when it started and how long it took — the output's
	// allocation, when it has no slot, included — and the bytes of the
	// tensors it read (its inputs, 4 per element) and wrote (its output).
	// A view's output is counted although it shares its input's storage.
	// It is a field, not a decision taken once, because the same compiled
	// program is served unobserved and measured observed: serving leaves
	// it nil and pays one nil check per step, with no clock read.
	Observe func(step int, start time.Time, d time.Duration, bytesIn, bytesOut int)

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

// Reserve readies the executor to Run g without running it, doing what
// a first Run does before its first step: compile g unless the executor
// holds its program (NewExecutors' shared one included) and, on a static
// graph only, build the arena from the plan's slots. It warms no cache,
// kernel-pool worker or scratch pool; only running does.
func (e *Executor) Reserve(g *Graph) error {
	_, err := e.prepare(g)
	return err
}

// ArenaBuffers returns the number of slot buffers the executor's arena
// holds: the plan's slot count once Run or Reserve has prepared a static
// graph, else 0.
func (e *Executor) ArenaBuffers() int {
	if e.f == nil {
		return 0
	}
	return len(e.f.arena)
}

// prepare readies the executor to run g: it compiles g unless the cached
// program is g's, and builds the frame's arena when Compile made a plan.
func (e *Executor) prepare(g *Graph) (*Program, error) {
	if e.prog == nil || e.prog.g != g {
		p, err := Compile(g)
		if err != nil {
			return nil, err
		}
		e.prog, e.f = p, newFrame(p)
	}
	p, f := e.prog, e.f
	if p.plan != nil && f.arena == nil {
		f.build(p)
	}
	return p, nil
}

// Run evaluates g on input and returns the output tensor. The steps run
// in graph (topological) order; an intermediate is dropped as soon as
// every node reading it has executed (define-by-run memory behaviour);
// on a static graph its slot buffer waits for the slot's next value.
func (e *Executor) Run(g *Graph, input *tensor.Tensor) (*tensor.Tensor, error) {
	if input == nil {
		return nil, fmt.Errorf("graph %s: input is nil", g.Name)
	}
	if !input.Shape.Equal(g.Input.OutShape) {
		return nil, fmt.Errorf("graph %s: input shape %v, want %v", g.Name, input.Shape, g.Input.OutShape)
	}
	p, err := e.prepare(g)
	if err != nil {
		return nil, err
	}
	f := e.f
	f.vals[p.input] = input
	for i := range p.steps {
		s := &p.steps[i]
		if e.Observe == nil {
			err = e.eval(p, f, s)
		} else {
			err = e.observe(p, f, i)
		}
		if err != nil {
			clear(f.vals)
			return nil, fmt.Errorf("graph %s: node %s: %w", g.Name, s.n, err)
		}
		f.release(s.free)
	}
	out := f.vals[p.output]
	clear(f.vals)
	return out, nil
}

// observe runs step i through eval and reports it to Observe; its
// operands are still in the frame, as release has not run.
func (e *Executor) observe(p *Program, f *frame, i int) error {
	s := &p.steps[i]
	start := time.Now()
	if err := e.eval(p, f, s); err != nil {
		return err
	}
	d := time.Since(start)
	in := 0
	for _, v := range s.in {
		in += 4 * len(f.vals[v].Data)
	}
	e.Observe(i, start, d, in, 4*len(f.vals[s.out].Data))
	return nil
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
