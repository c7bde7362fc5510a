package graph

import (
	"fmt"
	"sync"
	"sync/atomic"

	"edgebench/internal/tensor"
)

// Executor evaluates a graph numerically over real tensors. It backs the
// functional-correctness path of the engine (the timing path uses the
// analytic cost model in internal/core instead, since the paper's device
// latencies cannot be reproduced by host-CPU wall time).
//
// The first run on a graph compiles it (compile.go) into a flat list of
// steps, each with its kernel already chosen (bind.go); Run, RunValues
// and RunBatch are schedules over that one list, so a graph gives the
// same bits under every setting below, with weights pre-packed or not.
//
// Two orthogonal options accelerate repeated inference. Parallel runs
// data-independent nodes (Inception branches, residual arms) concurrently
// on the kernel worker pool; outputs are identical to sequential order
// because node inputs are only read from completed earlier levels.
// Pooled recycles a static graph's intermediate buffers through a
// tensor.Pool arena across Run calls, as the buffer plan lays them out,
// reproducing the static-framework memory reuse the paper measures
// against define-by-run allocation; dynamic graphs allocate every
// intermediate and drop it after its last reader. An Executor is not
// safe for concurrent Run calls — use one per goroutine (see
// serving.Engine).
type Executor struct {
	// Parallel enables wavefront scheduling: nodes whose inputs are all
	// computed run concurrently, bounded by GOMAXPROCS.
	Parallel bool

	// Pooled enables the static-graph buffer plan: intermediates live in
	// a per-executor arena reused across Run calls. Ignored for dynamic
	// graphs and for RunValues (which must retain every node value).
	Pooled bool

	// Debug re-proves static safety at runtime: before the first Run on
	// each graph the registered DebugChecker (internal/verify's dataflow
	// passes) revalidates the graph and its buffer plan, and every
	// pooled allocation asserts the recycled dst buffer does not alias a
	// live input of the node about to write it. Off in production, on in
	// tests and `edgeserve -debug`.
	Debug bool

	// prog is the compiled form of the last graph run; debugged is the
	// last graph the Debug checker accepted, so revalidation runs once
	// per graph, not per inference.
	prog     *program
	debugged *Graph

	// frames holds the per-sample run state for prog: frame 0 serves Run
	// and RunValues, frames 1..B-1 the other samples of a RunBatch. One
	// arena per sample keeps the pools single-goroutine while non-folded
	// nodes evaluate all samples concurrently; the slice grows to the
	// largest batch seen and is dropped on recompile.
	frames []*frame

	// errs collects one error per concurrently evaluated step (a
	// wavefront level's nodes, or a batch's samples); bins and bdsts are
	// a folded batch step's operand and result lists. All are reused
	// across runs. (Safe to keep on the Executor: Run is documented
	// single-goroutine per Executor.)
	errs        []error
	bins, bdsts []*tensor.Tensor

	// nInt8/nFP32 count compute-kernel dispatches (conv/dense families)
	// by execution datatype — the probe tests and the serving metrics
	// use to assert a quantized graph really runs int8 kernels. nFused
	// counts the subset of dispatches (either datatype) that ran a fused
	// epilogue kernel (absorbed BN/activation applied in the output
	// loop) rather than separate elementwise passes. Atomic: the
	// wavefront scheduler evaluates nodes concurrently.
	nInt8, nFP32, nFused atomic.Int64

	// nPrepacked counts conv/dense dispatches that consumed an
	// ahead-of-time packed panel (Node.Packed/PackedQ) instead of packing
	// per call — the probe serving metrics and prepack tests use to
	// assert a pre-packed graph really skips the pack step.
	nPrepacked atomic.Int64
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
// (define-by-run memory behaviour), and in Pooled static mode its buffer
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

// DispatchCounts reports how many compute-kernel dispatches (the
// conv/dense op families) ran on the int8 path vs the FP32 path since
// the executor was created, plus how many of those (across both paths)
// ran a fused epilogue kernel — bias/BN/activation applied in the
// kernel's output loop instead of separate node dispatches. Safe to
// call concurrently with Run.
func (e *Executor) DispatchCounts() (int8Kernels, fp32Kernels, fusedKernels int64) {
	return e.nInt8.Load(), e.nFP32.Load(), e.nFused.Load()
}

// PrepackedDispatches reports how many conv/dense dispatches ran on
// ahead-of-time packed weight panels since the executor was created.
// Safe to call concurrently with Run.
func (e *Executor) PrepackedDispatches() int64 { return e.nPrepacked.Load() }

// PoolStats reports the arena traffic counters summed across the
// per-sample arenas; zero-valued until a Pooled run or a RunBatch on a
// static graph has executed.
func (e *Executor) PoolStats() tensor.PoolStats {
	var total tensor.PoolStats
	for _, f := range e.frames {
		if f.arena == nil {
			continue
		}
		st := f.arena.Stats()
		total.Gets += st.Gets
		total.Misses += st.Misses
		total.Puts += st.Puts
		total.Idle += st.Idle
	}
	return total
}

// checkInput validates the i-th input tensor of a run on g.
func checkInput(g *Graph, i int, in *tensor.Tensor) error {
	if in == nil {
		return fmt.Errorf("graph %s: input %d is nil", g.Name, i)
	}
	if !in.Shape.Equal(g.Input.OutShape) {
		return fmt.Errorf("graph %s: input %d shape %v, want %v", g.Name, i, in.Shape, g.Input.OutShape)
	}
	return nil
}

// prepare readies the executor to run g on the given number of samples:
// it compiles g unless the cached program is g's, runs the Debug checker
// once per graph, and sizes the first `samples` frames. pooled asks for
// arena-backed results; it is granted only where a plan exists.
func (e *Executor) prepare(g *Graph, samples int, pooled bool) (*program, error) {
	if e.prog == nil || e.prog.g != g {
		p, err := compile(g)
		if err != nil {
			return nil, err
		}
		e.prog, e.frames = p, nil
	}
	p := e.prog
	pooled = pooled && p.plan != nil
	if e.Debug && e.debugged != g {
		var plan *Plan
		if pooled {
			plan = p.plan
		}
		if err := debugCheck(g, plan); err != nil {
			return nil, fmt.Errorf("graph %s: debug check: %w", g.Name, err)
		}
		e.debugged = g
	}
	for len(e.frames) < samples {
		e.frames = append(e.frames, &frame{
			vals: make([]*tensor.Tensor, len(g.Nodes)),
			args: make([]*tensor.Tensor, p.nargs),
		})
	}
	for _, f := range e.frames[:samples] {
		f.pooled = pooled
		if pooled && f.arena == nil {
			f.arena = tensor.NewPool()
			f.arena.Preallocate(p.plan.Slots...)
		}
	}
	return p, nil
}

// forward runs one sample through frame 0 and returns the frame with its
// values in place. retain keeps every value alive (RunValues); the
// caller clears the frame once it has taken what it needs.
func (e *Executor) forward(g *Graph, input *tensor.Tensor, retain bool) (*frame, error) {
	if err := checkInput(g, 0, input); err != nil {
		return nil, err
	}
	p, err := e.prepare(g, 1, e.Pooled && !retain)
	if err != nil {
		return nil, err
	}
	f := e.frames[0]
	f.vals[p.input] = input
	if e.Parallel {
		err = e.wavefront(p, f, retain)
	} else {
		err = e.sequential(p, f, retain)
	}
	if err != nil {
		clear(f.vals)
		return nil, err
	}
	return f, nil
}

// eval runs one step on one frame and publishes its value. It is the
// only place a kernel is called for a single sample. Conditions the
// static verifier prevents (shape mismatches) surface here as wrapped
// errors rather than panics, so a verifier miss degrades gracefully
// instead of crashing a whole sweep: the recover guard converts residual
// kernel panics from internal/tensor into errors.
func (e *Executor) eval(p *program, f *frame, s *step) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel panic: %v", r)
		}
	}()
	in := f.args[s.arg : s.arg+len(s.in)]
	for i, v := range s.in {
		in[i] = f.vals[v]
	}
	var dst *tensor.Tensor
	if s.k.dst {
		dst = f.alloc(p, s, in, e.Debug)
	}
	f.vals[s.out] = s.k.run(s.n, dst, in)
	clear(in)
	e.count(&s.k, 1)
	return nil
}

// count records samples evaluations of kernel k in the dispatch counters.
func (e *Executor) count(k *kernel, samples int64) {
	switch {
	case k.int8:
		e.nInt8.Add(samples)
	case k.compute:
		e.nFP32.Add(samples)
	}
	if k.fused {
		e.nFused.Add(samples)
	}
	if k.packed {
		e.nPrepacked.Add(samples)
	}
}

// stepError names the failing node the way every schedule reports it.
func stepError(p *program, s *step, err error) error {
	return fmt.Errorf("graph %s: node %s: %w", p.g.Name, s.n, err)
}

// sequential executes the steps in graph (topological) order.
func (e *Executor) sequential(p *program, f *frame, retain bool) error {
	for i := range p.steps {
		s := &p.steps[i]
		if err := e.eval(p, f, s); err != nil {
			return stepError(p, s, err)
		}
		if !retain {
			f.release(p, s.free)
		}
	}
	return nil
}

// wavefront executes the program level by level: every step in a level
// depends only on strictly earlier levels. Multi-step levels are sharded
// over the persistent kernel worker pool (tensor.ParallelFor), so
// inter-op and intra-op parallelism share one fixed worker set. Each
// step writes only its own value and reads values of earlier levels, and
// ParallelFor returns only after every shard ran, so evaluation is
// race-free without locking and output values equal sequential
// execution because per-node inputs are identical. Errors surface
// deterministically as the first failing node in graph order. Values are
// released at the level barrier: recycled buffers are only handed to
// later levels, which start strictly after that point.
func (e *Executor) wavefront(p *program, f *frame, retain bool) error {
	for l := range p.levels {
		lv := &p.levels[l]
		if len(lv.steps) == 1 {
			s := &p.steps[lv.steps[0]]
			if err := e.eval(p, f, s); err != nil {
				return stepError(p, s, err)
			}
		} else {
			errs := e.errBuf(len(lv.steps))
			tensor.ParallelFor(len(lv.steps), 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					errs[i] = e.eval(p, f, &p.steps[lv.steps[i]])
				}
			})
			if i, err := firstError(errs); err != nil {
				return stepError(p, &p.steps[lv.steps[i]], err)
			}
		}
		if !retain {
			f.release(p, lv.free)
		}
	}
	return nil
}

// errBuf returns the executor's reusable error slice at length n, all nil.
func (e *Executor) errBuf(n int) []error {
	if cap(e.errs) < n {
		e.errs = make([]error, n)
	}
	return e.errs[:n]
}

// firstError returns the lowest-index error in errs, clearing the slice
// for its next use.
func firstError(errs []error) (index int, first error) {
	for i := len(errs) - 1; i >= 0; i-- {
		if errs[i] != nil {
			index, first = i, errs[i]
		}
		errs[i] = nil
	}
	return index, first
}

// RunBatch evaluates g on a micro-batch of inputs, folding the batch
// dimension through every node whose kernel has a batch form (the
// pre-packed conv/dense kernels): the B lowered activation matrices
// stack into one (B·M)×K operand and run as a single wide GEMM against
// the node's ahead-of-time packed panels, which is where a batch window
// earns real throughput (wider GEMMs amortize panel traversal and spread
// rows across the worker pool). Other nodes evaluate per sample —
// concurrently, one goroutine per sample, since samples are independent —
// so outputs are bitwise identical to B sequential Run calls on the same
// graph. On static graphs each sample runs against its own arena (sample
// 0 shares Run's) with the same release rule as Run: a buffer returns
// to its free list the moment its owning sample is done with it, so each
// arena holds one live buffer per plan slot instead of retaining every
// intermediate (pooling never changes values, only allocation traffic).
// Like Run, RunBatch is single-goroutine per Executor.
func (e *Executor) RunBatch(g *Graph, inputs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("graph %s: empty batch", g.Name)
	}
	for i, in := range inputs {
		if err := checkInput(g, i, in); err != nil {
			return nil, err
		}
	}
	if len(inputs) == 1 {
		out, err := e.Run(g, inputs[0])
		if err != nil {
			return nil, err
		}
		return []*tensor.Tensor{out}, nil
	}
	p, err := e.prepare(g, len(inputs), true)
	if err != nil {
		return nil, err
	}
	frames := e.frames[:len(inputs)]
	for i, f := range frames {
		f.vals[p.input] = inputs[i]
	}
	err = e.batch(p, frames)
	outs := make([]*tensor.Tensor, len(frames))
	for i, f := range frames {
		outs[i] = f.vals[p.output]
		clear(f.vals)
	}
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// batch executes the steps in graph order for every frame at once.
func (e *Executor) batch(p *program, frames []*frame) error {
	for i := range p.steps {
		s := &p.steps[i]
		var err error
		if s.k.batch != nil {
			err = e.evalFolded(p, frames, s)
		} else {
			// Samples are independent, so evaluate all of them
			// concurrently: each frame owns its values and arena, dispatch
			// counters are atomic, and every sample computes exactly what
			// a sequential Run would, so concurrency changes wall-clock,
			// never values. This is where a batch earns throughput on the
			// ops with no wide kernel — B depthwise/pool/activation
			// evaluations overlap instead of queueing behind one another.
			errs := e.errBuf(len(frames))
			var wg sync.WaitGroup
			for j, f := range frames {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[j] = e.eval(p, f, s)
				}()
			}
			wg.Wait()
			_, err = firstError(errs)
		}
		if err != nil {
			return stepError(p, s, err)
		}
		for _, f := range frames {
			f.release(p, s.free)
		}
	}
	return nil
}

// evalFolded runs one step's batch kernel over all frames: eval for a
// whole micro-batch, with the same recover guard.
func (e *Executor) evalFolded(p *program, frames []*frame, s *step) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel panic: %v", r)
		}
	}()
	if cap(e.bins) < len(frames) {
		e.bins = make([]*tensor.Tensor, len(frames))
		e.bdsts = make([]*tensor.Tensor, len(frames))
	}
	ins, dsts := e.bins[:len(frames)], e.bdsts[:len(frames)]
	for i, f := range frames {
		ins[i] = f.vals[s.in[0]]
		dsts[i] = f.alloc(p, s, ins[i:i+1], e.Debug)
	}
	s.k.batch(s.n, dsts, ins)
	for i, f := range frames {
		f.vals[s.out] = dsts[i]
	}
	clear(ins)
	clear(dsts)
	e.count(&s.k, int64(len(frames)))
	return nil
}
