package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the package's intra-op parallelism substrate: a
// persistent, GOMAXPROCS-sized worker pool that every parallel kernel
// (GEMM, int8 GEMM, conv, depthwise, matvec) shares, whichever
// executor replica or pipeline stage called it. The previous design
// spawned goroutines per kernel call; at single-inference granularity
// the spawn and exit cost ate the sharding win (the parallel kernels
// *lost* to serial). Here workers are spawned once and each has a
// mailbox: parallelFor CASes its task into an idle worker's mailbox, a
// worker that has finished a task polls its mailbox for workerSpin
// before it parks on its doorbell channel, and only an offer to a
// parked worker rings the bell. An offer nobody took by the time the
// caller has drained the range is taken back, so a caller never waits
// for a helper that has not started.
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
// idle worker and simply runs its whole range on the calling
// goroutine. Parallelism degrades to serial instead of deadlocking
// (nobody ever blocks waiting for a worker) or oversubscribing (the
// worker set is fixed).
const (
	// parallelThresholdMACs is the work level above which a GEMM-class
	// kernel shards: ~1M multiply-accumulates, 0.4 ms of one core's GEMM
	// at 2.7 GMAC/s, against a fork-join of 0.8–1.4 µs when the workers
	// are hot and a helper that starts 50–100 µs late when its thread
	// has gone to sleep (BenchmarkForkJoin, BenchmarkForkJoinGap; DESIGN
	// §11).
	parallelThresholdMACs = 1 << 20

	// workerSpin is how long a worker that has finished a task polls its
	// mailbox before it parks. A parked worker's thread sleeps, and the
	// next offer it takes starts 50–100 µs late on this host (Xeon 2.10
	// GHz, 2 CPUs). Between two offers of one MobileNet-v2 or
	// SqueezeNet-int8 inference a helper idles — the caller's tail chunk
	// plus the serial work between kernels — a median 10–50 µs, under
	// 250 µs for 81–91 % of offers and under 500 µs for 89–97 %. 500 µs
	// would let an idle two-core process spin 1 ms; 250 µs keeps it at
	// half that (TestPoolIdleBurnsNoCPU; DESIGN §11).
	workerSpin = 250 * time.Microsecond

	// chunksPerWorker is how many chunks parallelFor aims to cut per
	// available worker. >1 lets fast workers steal from slow ones;
	// too many and per-chunk setup (staging) and handoff overhead
	// grow.
	chunksPerWorker = 4

	// parallelGrainMACs is the minimum multiply-accumulate count one
	// chunk should carry. Chunks this small still amortize the chunk
	// claim (one atomic add) thousands of times over.
	parallelGrainMACs = parallelThresholdMACs / 16
)

// workTask is one parallelFor invocation's shared state. Workers claim
// chunk indices from cursor; wg counts offers not yet retracted so the
// caller can await the helpers that took one. panicked holds the first
// value any runner's fn panicked with, for the caller to re-raise.
// enlisted is when the offers went out.
type workTask struct {
	cursor   atomic.Int64
	chunks   int
	chunk    int
	n        int
	fn       func(lo, hi int)
	wg       sync.WaitGroup
	panicked atomic.Pointer[any]
	enlisted time.Time
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

// poolState is one generation of the worker pool: its workers and the
// stop channel that retires the generation when GOMAXPROCS changes.
// Generations are immutable once published, so readers need no lock.
type poolState struct {
	workers []*worker
	stop    chan struct{}
}

// Worker states. Only an idle worker — spinning or parked — is offered a
// task, and only a parked one needs its bell rung.
const (
	workerBusy int32 = iota
	workerSpinning
	workerParked
)

// worker is one pool worker's hand-off state. mail holds a task offered
// and not yet taken; the worker takes it with a Swap, the offering
// caller retracts it with a CAS, so exactly one of them gets it. bell
// has room for one ring: a ring that finds the worker already awake
// costs it one more look at an empty mailbox when it next parks.
type worker struct {
	mail  atomic.Pointer[workTask]
	state atomic.Int32
	bell  chan struct{}
}

var (
	poolMu  sync.Mutex
	poolGen atomic.Pointer[poolState]

	// taskPool recycles workTask headers so a parallelFor call costs no
	// steady-state allocation beyond its fn closure.
	taskPool = sync.Pool{New: func() any { return new(workTask) }}

	// Pool traffic counters (tests assert saturation fallback and
	// enlistment actually happen; BenchmarkInferHandoff reports the
	// hand-off per inference).
	poolParallelRuns atomic.Int64 // parallelFor calls that offered >= 1 helper
	poolSerialRuns   atomic.Int64 // parallelFor calls that ran entirely on the caller
	poolEnlistments  atomic.Int64 // offers placed in a mailbox
	poolHotTakes     atomic.Int64 // offers taken by a worker still spinning
	poolRetractions  atomic.Int64 // offers the caller took back untaken
	poolStartWaitNs  atomic.Int64 // enlist → helper start, summed over taken offers
)

// ensurePool returns the pool generation sized to the current
// GOMAXPROCS, retiring the old workers and parking a fresh set when the
// value changed since the last call (tests change GOMAXPROCS
// in-process; servers set it once at boot).
func ensurePool() *poolState {
	want := runtime.GOMAXPROCS(0)
	if s := poolGen.Load(); s != nil && len(s.workers) == want {
		return s
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if s := poolGen.Load(); s != nil && len(s.workers) == want {
		return s
	}
	if old := poolGen.Load(); old != nil {
		close(old.stop) // old workers exit; one mid-task finishes it first
	}
	s := &poolState{workers: make([]*worker, want), stop: make(chan struct{})}
	for i := range s.workers {
		s.workers[i] = &worker{bell: make(chan struct{}, 1)}
		go poolWorker(s.workers[i], s.stop)
	}
	poolGen.Store(s)
	return s
}

// poolWorker runs the tasks offered to w and reports each through the
// task's WaitGroup. Closing stop (pool resize or test shutdown) retires
// it, spinning or parked; a worker mid-task finishes that task first.
func poolWorker(w *worker, stop chan struct{}) {
	for {
		t, hot := w.next(stop)
		if t == nil {
			return
		}
		if hot {
			poolHotTakes.Add(1)
		}
		poolStartWaitNs.Add(int64(time.Since(t.enlisted)))
		t.run()
		// Idle before Done: the caller it frees may enlist again at once,
		// and must find this worker, not ring a parked one.
		w.state.Store(workerSpinning)
		t.wg.Done()
	}
}

// next returns the next task offered to w, and whether w was still
// spinning when it came; nil once stop is closed. It polls the mailbox
// for workerSpin, yielding its P at every poll so a spinner never keeps
// a runnable goroutine (another replica, an HTTP handler) off a core,
// then parks on the bell. A ring whose offer was retracted before w woke
// parks it again at once, so an idle pool spins at most workerSpin a
// worker after its last task.
func (w *worker) next(stop chan struct{}) (*workTask, bool) {
	w.state.Store(workerSpinning)
	for start := time.Now(); time.Since(start) < workerSpin; runtime.Gosched() {
		if t := w.take(); t != nil {
			return t, true
		}
		select {
		case <-stop:
			return nil, false
		default:
		}
	}
	w.state.Store(workerParked)
	for {
		// An offer made before the store above saw w spinning and did not
		// ring, so look before every sleep.
		if t := w.take(); t != nil {
			return t, false
		}
		select {
		case <-w.bell:
		case <-stop:
			return nil, false
		}
	}
}

// take empties w's mailbox, marking w busy if it held a task.
func (w *worker) take() *workTask {
	if w.mail.Load() == nil {
		return nil
	}
	t := w.mail.Swap(nil)
	if t != nil {
		w.state.Store(workerBusy)
	}
	return t
}

// shutdownPool retires the current worker generation without starting a
// new one; the next parallelFor call rebuilds the pool. Exists for the
// idle/shutdown tests — production code never needs it (an idle worker
// parks workerSpin after its last task and then costs nothing).
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
	limit := len(s.workers)
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

	// Offer the task to idle workers, spinning ones before parked ones (a
	// parked worker must be rung and its thread woken): at most limit-1
	// helpers (the caller is the limit-th runner) and never more than the
	// chunks they could claim. Busy workers are skipped; with none idle
	// the caller runs the range alone.
	maxHelpers := min(limit-1, chunks-1)
	helpers := 0
	t.enlisted = time.Now()
	for want := workerSpinning; want <= workerParked && helpers < maxHelpers; want++ {
		for _, w := range s.workers {
			if helpers == maxHelpers || w.state.Load() != want {
				continue
			}
			t.wg.Add(1)
			if !w.mail.CompareAndSwap(nil, t) {
				t.wg.Done()
				continue
			}
			helpers++
			if w.state.Load() == workerParked {
				select {
				case w.bell <- struct{}{}:
				default:
				}
			}
		}
	}
	if helpers == 0 {
		poolSerialRuns.Add(1)
		t.run()
	} else {
		poolParallelRuns.Add(1)
		poolEnlistments.Add(int64(helpers))
		t.run()
		// The range is drained: take back every offer no worker has
		// taken, so the caller waits only for helpers that started.
		for _, w := range s.workers {
			if w.mail.Load() == t && w.mail.CompareAndSwap(t, nil) {
				poolRetractions.Add(1)
				t.wg.Done()
			}
		}
		t.wg.Wait()
	}
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

// ParallelThresholdMACs exposes the kernel-dispatch work threshold.
//
// edgelint:seam the graph package's tests size their layers against the
// bar to pin which kernels shard, and export_test.go is invisible to
// another package's tests.
func ParallelThresholdMACs() int { return parallelThresholdMACs }
