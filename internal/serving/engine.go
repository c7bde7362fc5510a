// Real batch execution behind the serving simulation: an Engine owns a
// fixed set of executor replicas (each with its own planned buffer
// arena) and drives concurrent single-batch inferences through them —
// the ROADMAP's "serving shim" growing from analytic simulation toward
// actually running requests.
package serving

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
	"edgebench/internal/verify"
)

// ErrEmptyBatch reports an InferBatch call with no inputs: the caller's
// batching layer has a scheduling bug, and spawning zero goroutines to
// "succeed" would hide it.
var ErrEmptyBatch = errors.New("serving: empty batch")

// ErrNilInput reports a nil tensor in a batch; the offending index is in
// the wrapping error.
var ErrNilInput = errors.New("serving: nil input tensor")

// ErrEngineClosed reports an inference attempted after Close.
var ErrEngineClosed = errors.New("serving: engine closed")

// Engine executes real inferences over a materialized graph with a pool
// of executor replicas. The replicas share one compiled program — the
// kernels, which read the graph's weights in place — and
// each has its own run state: pooled (arena-reusing) for static graphs,
// eager-release for dynamic ones, so concurrent requests never contend on
// buffers while still reusing memory across requests hitting the same
// replica. A replica's arena is built by its first run, or ahead of
// traffic by Warmup, which runs the shared program once per engine.
// Infer and InferBatch are safe for concurrent use, including
// concurrently with Close.
//
// Intra-op parallelism composes with the replica pool: every replica's
// kernels dispatch large layers onto tensor's single package-global
// worker pool, which is sized to GOMAXPROCS regardless of replica
// count. When replicas saturate the machine the kernel pool refuses
// enlistment and each kernel runs serial on its replica's goroutine, so
// total concurrency never exceeds GOMAXPROCS; when the engine is
// lightly loaded a lone request fans its big layers out across the idle
// cores.
type Engine struct {
	g        *graph.Graph
	prog     *graph.Program
	replicas chan *graph.Executor
	size     int
	closed   chan struct{}
	once     sync.Once

	// runs counts the inferences that succeeded, Warmup's one included:
	// DispatchCounts is runs times the program's per-run counts.
	runs atomic.Int64
}

// NewEngine verifies g and compiles it, once, into an engine with the
// given number of executor replicas (<= 0 means GOMAXPROCS). A graph that
// cannot execute — structural-only parameters, a node no kernel accepts —
// fails here with the compiler's message. g is only read, and an edit to
// it after NewEngine needs a new engine.
func NewEngine(g *graph.Graph, replicas int) (*Engine, error) {
	if err := verify.Err(verify.Check(g)); err != nil {
		return nil, fmt.Errorf("serving: graph %s: %w", g.Name, err)
	}
	if replicas <= 0 {
		replicas = runtime.GOMAXPROCS(0)
	}
	p, err := graph.Compile(g)
	if err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	e := &Engine{
		g:        g,
		prog:     p,
		replicas: make(chan *graph.Executor, replicas),
		size:     replicas,
		closed:   make(chan struct{}),
	}
	for _, ex := range graph.NewExecutors(p, replicas) {
		e.replicas <- ex
	}
	return e, nil
}

// Replicas returns the configured replica count.
func (e *Engine) Replicas() int { return e.size }

// Concurrency is how many Infer calls run at the same time: one per
// replica. The HTTP server starts that many dispatch loops, so every
// replica has a request whenever one is waiting and none waits behind a
// busy pool it cannot see.
func (e *Engine) Concurrency() int { return e.Replicas() }

// Warmup readies the engine for traffic before the first request (or
// the first pipelined frame) arrives. It borrows every replica exactly
// once and runs one throwaway inference on the first of them, which
// warms what the replicas share — the program's kernels, the
// kernel pool and the scratch pools; every other replica only gets its
// arena (Executor.Reserve), since a second run would warm nothing the
// plan has not already sized. After Warmup no replica allocates an
// arena on its first request, and the warm replica is the next one
// borrowed; a sibling's first request still runs with cold caches.
// Stage workers call it before reporting Ready, keeping first-frame
// latency off the steady-state measurement.
func (e *Engine) Warmup() error {
	exs := make([]*graph.Executor, 0, e.size)
	defer func() {
		for _, ex := range exs {
			e.replicas <- ex
		}
	}()
	for i := 0; i < e.size; i++ {
		select {
		case ex := <-e.replicas:
			exs = append(exs, ex)
		case <-e.closed:
			return ErrEngineClosed
		}
	}
	if _, err := e.run(exs[0], tensor.New(e.g.Input.OutShape...)); err != nil {
		return err
	}
	for _, ex := range exs[1:] {
		if err := ex.Reserve(e.g); err != nil {
			return err
		}
	}
	return nil
}

// run is the engine's one call into an executor: it runs in on ex and
// counts the run if it succeeded.
func (e *Engine) run(ex *graph.Executor, in *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := ex.Run(e.g, in)
	if err == nil {
		e.runs.Add(1)
	}
	return out, err
}

// InputShape returns the shape one request tensor must have.
func (e *Engine) InputShape() tensor.Shape { return e.g.Input.OutShape }

// Infer runs one single-batch forward pass, borrowing a replica for the
// duration of the call. After Close it fails fast with ErrEngineClosed.
func (e *Engine) Infer(in *tensor.Tensor) (*tensor.Tensor, error) {
	if in == nil {
		return nil, ErrNilInput
	}
	select {
	case <-e.closed:
		return nil, ErrEngineClosed
	default:
	}
	select {
	case ex := <-e.replicas:
		defer func() { e.replicas <- ex }()
		return e.run(ex, in)
	case <-e.closed:
		return nil, ErrEngineClosed
	}
}

// InferBatch runs a micro-batch and returns outputs in input order. It
// is replica fan-out: one replica is always acquired (blocking), any
// others idle right now are taken opportunistically — so a batch never
// waits behind the full pool — and sample i runs on replica i mod R
// through Executor.Run, exactly as Infer would run it. The calling
// goroutine works replica 0's share itself, so a batch of one (or a
// busy pool) spawns no goroutine. A batch-folded form (one wide GEMM per
// layer over the whole batch) was measured against this and lost on the
// serving workload; see EXPERIMENTS.md, "Mechanisms judged". An empty
// batch fails with ErrEmptyBatch and a nil tensor with ErrNilInput (both
// before any work is dispatched); otherwise every sample runs, the
// output of a failed one is nil, and the error returned is the failure
// with the lowest input index, which it names. The HTTP server does not
// come through here — it hands single requests to Infer, one per idle
// replica; InferBatch is for a caller that holds a batch of its own.
func (e *Engine) InferBatch(ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(ins) == 0 {
		return nil, ErrEmptyBatch
	}
	for i, in := range ins {
		if in == nil {
			return nil, fmt.Errorf("serving: request %d: %w", i, ErrNilInput)
		}
	}
	select {
	case <-e.closed:
		return nil, ErrEngineClosed
	default:
	}
	exs := make([]*graph.Executor, 0, min(len(ins), e.size))
	select {
	case ex := <-e.replicas:
		exs = append(exs, ex)
	case <-e.closed:
		return nil, ErrEngineClosed
	}
acquire:
	for len(exs) < cap(exs) {
		select {
		case ex := <-e.replicas:
			exs = append(exs, ex)
		default:
			break acquire // pool busy; the replicas we hold take the rest
		}
	}
	outs := make([]*tensor.Tensor, len(ins))
	errs := make([]error, len(ins))
	share := func(w int) {
		for i := w; i < len(ins); i += len(exs) {
			outs[i], errs[i] = e.run(exs[w], ins[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < len(exs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			share(w)
		}()
	}
	share(0)
	wg.Wait()
	for _, ex := range exs {
		e.replicas <- ex
	}
	for i, err := range errs {
		if err != nil {
			return outs, fmt.Errorf("serving: request %d: %w", i, err)
		}
	}
	return outs, nil
}

// Close marks the engine closed and drains the replica pool, blocking
// until every in-flight inference has returned its replica. New Infer
// calls fail fast with ErrEngineClosed; Close is idempotent and safe to
// call concurrently with inference.
func (e *Engine) Close() error {
	e.once.Do(func() {
		close(e.closed)
		for i := 0; i < e.size; i++ {
			<-e.replicas
		}
	})
	return nil
}

// ExecDType reports the execution datatype label of the engine's graph:
// the dominant DType among weight-bearing nodes ("int8" after a
// quantization pass, "fp32" by default). The serving metrics export it
// so /metrics shows which path a deployment runs.
func (e *Engine) ExecDType() string { return GraphExecDType(e.g) }

// GraphExecDType computes the execution-datatype label for any graph —
// shared by Engine.ExecDType and the cluster dispatcher, which must
// label a pipeline whose stages execute in other processes.
func GraphExecDType(g *graph.Graph) string {
	counts := map[tensor.DType]int{}
	for _, n := range g.Nodes {
		if n.WShape != nil {
			counts[n.DType]++
		}
	}
	best, bestCount := tensor.FP32, 0
	for d, c := range counts {
		if c > bestCount {
			best, bestCount = d, c
		}
	}
	return best.String()
}

// WeightBytes returns the graph's nominal parameter footprint: parameter
// count × execution-dtype size, not resident bytes. Each weight is held
// once and every kernel reads it in place, so the program holds no copy,
// but an int8 graph's biases and scales, and the weights of its nodes
// with no int8 kernel (depthwise, grouped), stay FP32 while counted at
// one byte. It is the number the 4x int8 footprint drop is visible in.
func (e *Engine) WeightBytes() int64 {
	var total int64
	for _, n := range e.g.Nodes {
		total += n.WeightBytes()
	}
	return total
}

// DispatchCounts reports the compute kernels the engine's successful
// runs (Warmup's one included) have dispatched — int8-path and FP32-path
// conv/dense kernels, plus the fused-epilogue subset — as the run count
// times the program's per-run Counts. It borrows no replica, so it is
// exact while requests are in flight, and the counts survive Close. A
// run that fails part-way counts nothing.
func (e *Engine) DispatchCounts() (int8Kernels, fp32Kernels, fusedKernels int64) {
	n := e.runs.Load()
	i8, f32, fz := e.prog.Counts()
	return n * i8, n * f32, n * fz
}

// PoolStats is the arena of an engine's parked replicas. Idle counts the
// slot buffers they hold, one per buffer-plan slot on each replica whose
// arena Reserve or a run has built. Misses is zero by construction —
// every planned value is written into its own slot's buffer — and is
// kept only because the repository benchmark still reports it
// (graph.arena_misses_per_op).
type PoolStats struct {
	Misses, Idle int
}

// PoolStats sums the arena buffers across all replicas currently parked
// in the pool (callers should quiesce the engine first for exact totals).
// After Close the pool is drained and the totals read zero.
func (e *Engine) PoolStats() PoolStats {
	var total PoolStats
	n := len(e.replicas)
	held := make([]*graph.Executor, 0, n)
	for i := 0; i < n; i++ {
		ex := <-e.replicas
		total.Idle += ex.ArenaBuffers()
		held = append(held, ex)
	}
	for _, ex := range held {
		e.replicas <- ex
	}
	return total
}
