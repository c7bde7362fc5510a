package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the package's intra-op parallelism substrate: a
// persistent, GOMAXPROCS-sized worker pool that every parallel kernel
// (GEMM, int8 GEMM, conv, depthwise, im2col, matvec) shares, whichever
// executor replica or pipeline stage called it. The previous design
// spawned goroutines per kernel call; at single-inference granularity
// the spawn and exit cost ate the sharding win (the parallel kernels
// *lost* to serial). Here workers are spawned once, park on a channel,
// and are enlisted per call with a single non-blocking channel send.
//
// Scheduling model: parallelFor cuts the index range [0, n) into chunks
// of at least `grain` units and publishes an atomic cursor; the caller
// and any enlisted workers claim chunks from the cursor until the range
// is drained (chunked index-range stealing — a slow chunk does not
// stall the others, and chunk order never affects results because every
// chunk writes a disjoint output slice).
//
// Nested-parallelism rule: enlisting is non-blocking, and the caller
// always works the range itself. When the pool is saturated — a
// parallel kernel invoked while every worker is busy, e.g. two serving
// replicas running conv nodes whose kernels both try to shard, or a
// kernel called from inside another kernel's shard — the call finds no
// parked worker and simply runs its whole range on the calling
// goroutine. Parallelism degrades to serial instead of deadlocking
// (nobody ever blocks waiting for a worker) or oversubscribing (the
// worker set is fixed).
const (
	// parallelThresholdMACs is the work level above which a GEMM-class
	// kernel shards: ~1M multiply-accumulates, 0.4 ms of one core's GEMM
	// at 2.7 GMAC/s, against a fork-join of 0.8–1.4 µs when the workers
	// are hot and a helper that starts 110–190 µs late when its thread
	// has gone to sleep (BenchmarkForkJoin; DESIGN §11).
	parallelThresholdMACs = 1 << 20

	// chunksPerWorker is how many chunks parallelFor aims to cut per
	// available worker. >1 lets fast workers steal from slow ones;
	// too many and panel repacking (GEMM) and handoff overhead grow.
	chunksPerWorker = 4

	// parallelGrainMACs is the minimum multiply-accumulate count one
	// chunk should carry. Chunks this small still amortize the chunk
	// claim (one atomic add) thousands of times over.
	parallelGrainMACs = parallelThresholdMACs / 16
)

// workTask is one parallelFor invocation's shared state. Workers claim
// chunk indices from cursor; wg counts enlisted helpers so the caller
// can await them before returning. panicked holds the first value any
// runner's fn panicked with, for the caller to re-raise.
type workTask struct {
	cursor   atomic.Int64
	chunks   int
	chunk    int
	n        int
	fn       func(lo, hi int)
	wg       sync.WaitGroup
	panicked atomic.Pointer[any]
}

// run claims chunks until the cursor passes the end of the range. A
// panic in fn is contained here — on a pool worker nothing above this
// frame could recover it, and it would take the process down: the first
// panic value is kept for parallelFor's caller, and the cursor is moved
// past the end so no runner starts another chunk.
func (t *workTask) run() {
	defer func() {
		if r := recover(); r != nil {
			first := r // heap copy on the panic path only
			t.panicked.CompareAndSwap(nil, &first)
			t.cursor.Store(int64(t.chunks))
		}
	}()
	for {
		c := int(t.cursor.Add(1)) - 1
		if c >= t.chunks {
			return
		}
		lo := c * t.chunk
		hi := lo + t.chunk
		if hi > t.n {
			hi = t.n
		}
		t.fn(lo, hi)
	}
}

// poolState is one generation of the worker pool: a parking channel and
// the stop channel that retires the generation when GOMAXPROCS changes.
// Generations are immutable once published, so readers need no lock.
type poolState struct {
	queue chan *workTask
	stop  chan struct{}
	size  int
}

var (
	poolMu  sync.Mutex
	poolGen atomic.Pointer[poolState]

	// taskPool recycles workTask headers so a parallelFor call costs no
	// steady-state allocation beyond its fn closure.
	taskPool = sync.Pool{New: func() any { return new(workTask) }}

	// Pool traffic counters (tests assert saturation fallback and
	// enlistment actually happen).
	poolParallelRuns atomic.Int64 // parallelFor calls that enlisted >= 1 helper
	poolSerialRuns   atomic.Int64 // parallelFor calls that ran entirely on the caller
	poolEnlistments  atomic.Int64 // total helper enlistments
)

// ensurePool returns the pool generation sized to the current
// GOMAXPROCS, retiring the old workers and parking a fresh set when the
// value changed since the last call (tests change GOMAXPROCS
// in-process; servers set it once at boot).
func ensurePool() *poolState {
	want := runtime.GOMAXPROCS(0)
	if s := poolGen.Load(); s != nil && s.size == want {
		return s
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if s := poolGen.Load(); s != nil && s.size == want {
		return s
	}
	if old := poolGen.Load(); old != nil {
		close(old.stop) // old workers exit; one mid-task finishes it first
	}
	s := &poolState{
		queue: make(chan *workTask),
		stop:  make(chan struct{}),
		size:  want,
	}
	for i := 0; i < want; i++ {
		go poolWorker(s.queue, s.stop)
	}
	poolGen.Store(s)
	return s
}

// poolWorker parks on queue until enlisted, works the task's chunk
// range, and reports completion through the task's WaitGroup. Closing
// stop (pool resize or test shutdown) retires it; a worker mid-task
// finishes that task before checking.
func poolWorker(queue chan *workTask, stop chan struct{}) {
	for {
		select {
		case t := <-queue:
			t.run()
			t.wg.Done()
		case <-stop:
			return
		}
	}
}

// shutdownPool retires the current worker generation without starting a
// new one; the next parallelFor call rebuilds the pool. Exists for the
// idle/shutdown tests — production code never needs it (idle workers
// are parked on a channel receive and cost nothing).
func shutdownPool() {
	poolMu.Lock()
	defer poolMu.Unlock()
	if old := poolGen.Load(); old != nil {
		close(old.stop)
	}
	poolGen.Store(nil)
}

// parallelFor runs fn over [0, n) in chunks of at least grain indices,
// on the calling goroutine plus any idle pool workers. fn must treat
// [lo, hi) ranges as disjoint work with no cross-chunk ordering
// dependency; every parallel kernel in this package satisfies that by
// writing disjoint output rows. Returns only after every chunk ran. If
// fn panics on any goroutine, the remaining chunks are abandoned and the
// first panic value is re-raised here, on the caller, once every helper
// has stopped — so a caller's recover guard covers the whole range.
func parallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	s := ensurePool()
	limit := s.size
	if limit <= 1 || n <= grain {
		poolSerialRuns.Add(1)
		fn(0, n)
		return
	}
	chunk := (n + limit*chunksPerWorker - 1) / (limit * chunksPerWorker)
	if chunk < grain {
		chunk = grain
	}
	chunks := (n + chunk - 1) / chunk
	if chunks <= 1 {
		poolSerialRuns.Add(1)
		fn(0, n)
		return
	}
	t := taskPool.Get().(*workTask)
	t.cursor.Store(0)
	t.chunks, t.chunk, t.n, t.fn = chunks, chunk, n, fn

	// Enlist parked workers with non-blocking sends: at most limit-1
	// helpers (the caller is the limit-th runner) and never more than
	// the chunks they could claim. The first refused send means every
	// worker is busy — stop asking and run with what we have.
	maxHelpers := limit - 1
	if maxHelpers > chunks-1 {
		maxHelpers = chunks - 1
	}
	helpers := 0
enlist:
	for helpers < maxHelpers {
		t.wg.Add(1)
		select {
		case s.queue <- t:
			helpers++
		default:
			t.wg.Add(-1)
			break enlist
		}
	}
	if helpers > 0 {
		poolParallelRuns.Add(1)
		poolEnlistments.Add(int64(helpers))
	} else {
		poolSerialRuns.Add(1)
	}
	t.run()
	t.wg.Wait()
	t.fn = nil
	p := t.panicked.Swap(nil)
	taskPool.Put(t)
	if p != nil {
		panic(*p)
	}
}

// grainForMACs converts a per-unit work estimate into a parallelFor
// grain: the smallest unit count whose chunk still carries at least
// parallelGrainMACs multiply-accumulates.
func grainForMACs(macsPerUnit int) int {
	if macsPerUnit <= 0 {
		return 1
	}
	g := parallelGrainMACs / macsPerUnit
	if g < 1 {
		g = 1
	}
	return g
}

// ParallelThresholdMACs exposes the kernel-dispatch work threshold for
// tests and benchmarks that pin dispatch behaviour.
func ParallelThresholdMACs() int { return parallelThresholdMACs }

// KernelParallelism reports the worker count the kernel pool targets
// (GOMAXPROCS at last resize). Serving layers export it as a metric so
// a deployment can see what intra-op speedup is even possible.
func KernelParallelism() int { return ensurePool().size }
