package tensor

import (
	"bytes"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// coverage runs parallelFor and records exactly which indices were
// visited and how many times.
func coverage(t *testing.T, n, grain int) {
	t.Helper()
	counts := make([]int32, n)
	parallelFor(n, grain, func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad range [%d, %d) for n=%d", lo, hi, n)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("n=%d grain=%d: index %d visited %d times, want 1", n, grain, i, c)
		}
	}
}

func TestParallelForExactCoverage(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16, 129, 1000, 4096, 12345} {
		for _, grain := range []int{0, 1, 2, 64, 5000} {
			coverage(t, n, grain)
		}
	}
}

// TestParallelForNested drives nested parallelFor under load: inner
// calls must complete (serial fallback when the pool is saturated)
// without deadlock, and every index must still be covered exactly once.
func TestParallelForNested(t *testing.T) {
	const outer, inner = 64, 257
	counts := make([]int32, outer*inner)
	parallelFor(outer, 1, func(olo, ohi int) {
		for o := olo; o < ohi; o++ {
			o := o
			parallelFor(inner, 1, func(ilo, ihi int) {
				for i := ilo; i < ihi; i++ {
					atomic.AddInt32(&counts[o*inner+i], 1)
				}
			})
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("nested: index %d visited %d times, want 1", i, c)
		}
	}
}

// TestParallelForConcurrentCallers hammers the pool from many
// goroutines at once — the serving-engine shape (replicas × intra-op).
func TestParallelForConcurrentCallers(t *testing.T) {
	const callers, n = 8, 1024
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := make([]int32, n)
			for rep := 0; rep < 20; rep++ {
				clear(counts)
				parallelFor(n, 3, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				for i := range counts {
					if counts[i] != 1 {
						t.Errorf("index %d visited %d times", i, counts[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// poolWorkers counts the goroutines running poolWorker, of every
// generation.
func poolWorkers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("tensor.poolWorker("))
}

// awaitPoolWorkers waits until exactly want workers are alive — retired
// generations gone — and fails if that takes a second.
func awaitPoolWorkers(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); poolWorkers() != want; time.Sleep(workerSpin / 8) {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool workers alive a second on, want %d", poolWorkers(), want)
		}
	}
}

// TestPoolResize verifies the pool tracks GOMAXPROCS changes made
// in-process and that a retired generation's workers exit, although they
// were still spinning on their mailboxes when it was retired.
func TestPoolResize(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(2)
	if got := KernelParallelism(); got != 2 {
		t.Fatalf("KernelParallelism after GOMAXPROCS(2) = %d, want 2", got)
	}
	warmPool(t) // leaves a worker mid-spin
	runtime.GOMAXPROCS(4)
	if got := KernelParallelism(); got != 4 {
		t.Fatalf("KernelParallelism after GOMAXPROCS(4) = %d, want 4", got)
	}
	awaitPoolWorkers(t, 4)
	// Work still distributes correctly across a resize.
	coverage(t, 10000, 1)
}

// TestPoolShutdown verifies the test hook stops workers — spinning ones
// included — and that the next parallelFor transparently restarts the
// pool.
func TestPoolShutdown(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	warmPool(t) // pool up, a worker mid-spin
	shutdownPool()
	awaitPoolWorkers(t, 0)
	// Pool must come back on demand.
	coverage(t, 1000, 1)
	if KernelParallelism() != runtime.GOMAXPROCS(0) {
		t.Fatalf("pool size %d after restart, want %d", KernelParallelism(), runtime.GOMAXPROCS(0))
	}
}

// TestParallelForHotHandoff: a call issued right after another finds the
// worker that helped it still polling its mailbox and hands it the task
// without a wake. The chunks carry 20 µs of work each, as in warmPool, so
// a worker that was parked is woken in time to help with the first call
// (given 5 s for the reason warmPool gives). Every chunk runs exactly
// once, and the counters add up: one offer per call on two cores, none
// left in a mailbox, and no more taken hot or retracted than were made.
func TestParallelForHotHandoff(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	counts := make([]int32, 8)
	fn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
			busyFor(20 * time.Microsecond)
		}
	}
	runs, offers, hot, retracted, waited := poolParallelRuns.Load(), poolEnlistments.Load(),
		poolHotTakes.Load(), poolRetractions.Load(), poolStartWaitNs.Load()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; poolHotTakes.Load() == hot && time.Now().Before(deadline); i++ {
		clear(counts)
		parallelFor(len(counts), 1, fn)
		for j, c := range counts {
			if c != 1 {
				t.Fatalf("call %d: chunk %d ran %d times, want 1", i, j, c)
			}
		}
	}
	dRuns, dOffers := poolParallelRuns.Load()-runs, poolEnlistments.Load()-offers
	dHot, dRetracted := poolHotTakes.Load()-hot, poolRetractions.Load()-retracted
	if dHot == 0 {
		t.Fatal("no offer in 5 s of back-to-back calls was taken by a spinning worker")
	}
	if dOffers != dRuns || dHot+dRetracted > dOffers || poolStartWaitNs.Load() == waited {
		t.Fatalf("%d parallel runs, %d offers, %d taken hot, %d retracted, wait counter moved %v",
			dRuns, dOffers, dHot, dRetracted, poolStartWaitNs.Load() != waited)
	}
	for i, w := range ensurePool().workers {
		if w.mail.Load() != nil {
			t.Fatalf("worker %d's mailbox holds a task after every call returned", i)
		}
	}
}

// TestParallelForRetractsUntakenOffer: once the workers have parked, an
// offer rings one, but a two-chunk range of nothing is drained long
// before its thread wakes. The caller must take the offer back instead of
// waiting for it — a WaitGroup left unbalanced would hang here or panic —
// run each chunk once, leave no mailbox full, and the worker, woken to an
// empty mailbox, must still take work afterwards.
func TestParallelForRetractsUntakenOffer(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	retracted := poolRetractions.Load()
	for i := 0; i < 100 && poolRetractions.Load() == retracted; i++ {
		time.Sleep(2 * workerSpin)
		coverage(t, 2, 1)
	}
	if poolRetractions.Load() == retracted {
		t.Fatal("no offer to a parked worker was ever retracted")
	}
	for i, w := range ensurePool().workers {
		if w.mail.Load() != nil {
			t.Fatalf("worker %d's mailbox holds a retracted task", i)
		}
	}
	coverage(t, 4096, 1)
}

// TestPoolIdleBurnsNoCPU: workers spin only workerSpin after their last
// task, so a process that stops issuing kernels stops burning CPU. Each
// burst keeps the workers hot but allocates nothing, and follows a
// collection that also returned free memory to the OS, so neither GC mark
// workers nor the scavenger share the window with the pool's spin tail.
// On a shared two-vCPU host a window now and then reads a millisecond of
// noise (the race runtime's background work, a vCPU stall charged to
// whichever thread was on it), so the least of three bursts is held to
// the bound; a pool that kept spinning would fail all three.
func TestPoolIdleBurnsNoCPU(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	var burnt []time.Duration
	for len(burnt) < 3 {
		debug.FreeOSMemory()
		warmPool(t)
		before := processCPU(t)
		time.Sleep(200 * time.Millisecond)
		b := processCPU(t) - before
		if b < time.Millisecond {
			return
		}
		burnt = append(burnt, b)
	}
	t.Fatalf("the process burnt %v of CPU idle for 200 ms after each of three bursts, want < 1ms", burnt)
}

// warmPool issues back-to-back calls whose chunks carry 20 µs of work
// each, as a kernel's do (parallelGrainMACs), so a parked worker is woken
// in time to help, until a spinning worker has taken an offer: the pool
// ends hot. It allows 5 s, because this VM's second vCPU can stall for
// tens of milliseconds, and while it does every offer is drained by the
// caller and retracted before the rung worker runs.
func warmPool(t *testing.T) {
	t.Helper()
	fn := func(lo, hi int) { busyFor(time.Duration(hi-lo) * 20 * time.Microsecond) }
	hot := poolHotTakes.Load()
	for deadline := time.Now().Add(5 * time.Second); poolHotTakes.Load() == hot; {
		if time.Now().After(deadline) {
			t.Fatal("no offer in 5 s of back-to-back calls was taken by a spinning worker")
		}
		for i := 0; i < 10; i++ {
			parallelFor(8, 1, fn)
		}
	}
}

// busyFor keeps the calling goroutine on its core for d, doing
// arithmetic between clock reads.
func busyFor(d time.Duration) {
	x := float32(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 64; i++ {
			x = x*0.999 + 0.001
		}
	}
	busySink.Store(math.Float32bits(x))
}

// busySink keeps busyFor's arithmetic from being optimised away; helpers
// and callers store to it at once, hence atomic.
var busySink atomic.Uint32

// processCPU is the user + system CPU time the process has used so far.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestParallelForSerialSmall pins the dispatch policy: work at or under
// one grain never pays pool overhead.
func TestParallelForSerialSmall(t *testing.T) {
	before := poolParallelRuns.Load()
	parallelFor(8, 8, func(lo, hi int) {})
	parallelFor(1, 0, func(lo, hi int) {})
	if got := poolParallelRuns.Load(); got != before {
		t.Fatalf("small parallelFor took the parallel path (%d new parallel runs)", got-before)
	}
}

func TestGrainForMACs(t *testing.T) {
	if g := grainForMACs(0); g < 1 {
		t.Fatalf("grainForMACs(0) = %d, want >= 1", g)
	}
	if g := grainForMACs(parallelGrainMACs * 10); g != 1 {
		t.Fatalf("grainForMACs(huge) = %d, want 1", g)
	}
	// A unit costing exactly the grain budget should give grain 1;
	// cheap units batch up.
	small := grainForMACs(1)
	if small < 2 {
		t.Fatalf("grainForMACs(1) = %d, want a batching grain > 1", small)
	}
}

// onPoolWorker reports whether the calling goroutine is a pool helper
// (poolWorker is on its stack) rather than parallelFor's caller.
func onPoolWorker() bool {
	var pcs [32]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs[:])])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".poolWorker") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestParallelForHelperPanicReachesCaller: a panic in a chunk that a pool
// worker runs must not kill the process from that goroutine; it must come
// back as a panic on the goroutine that called parallelFor, after which
// the pool still works. The caller's own first chunk waits for the helper
// to have started, so the panicking chunk really is helper-run.
func TestParallelForHelperPanicReachesCaller(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	if old < 2 {
		runtime.GOMAXPROCS(2)
	}
	for attempt := 0; attempt < 1000; attempt++ {
		enlisted := poolEnlistments.Load()
		helperStarted := make(chan struct{})
		var once sync.Once
		var got any
		func() {
			defer func() { got = recover() }()
			parallelFor(64, 1, func(lo, hi int) {
				if onPoolWorker() {
					once.Do(func() { close(helperStarted) })
					panic("boom on helper")
				}
				if poolEnlistments.Load() > enlisted {
					<-helperStarted
				}
			})
		}()
		if poolEnlistments.Load() == enlisted {
			runtime.Gosched() // no worker was parked yet; ask again
			continue
		}
		if got != "boom on helper" {
			t.Fatalf("caller recovered %v, want the helper's panic value", got)
		}
		coverage(t, 4096, 1)
		return
	}
	t.Fatal("no pool worker was ever enlisted")
}
