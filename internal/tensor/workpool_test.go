package tensor

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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

// TestPoolResize verifies the pool tracks GOMAXPROCS changes made
// in-process and that retired generations don't leak goroutines without
// bound.
func TestPoolResize(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(2)
	if got := KernelParallelism(); got != 2 {
		t.Fatalf("KernelParallelism after GOMAXPROCS(2) = %d, want 2", got)
	}
	runtime.GOMAXPROCS(4)
	if got := KernelParallelism(); got != 4 {
		t.Fatalf("KernelParallelism after GOMAXPROCS(4) = %d, want 4", got)
	}
	// Work still distributes correctly across a resize.
	coverage(t, 10000, 1)
}

// TestPoolShutdown verifies the test hook stops workers and that the
// next parallelFor transparently restarts the pool.
func TestPoolShutdown(t *testing.T) {
	coverage(t, 1000, 1) // ensure pool is up
	shutdownPool()
	// Pool must come back on demand.
	coverage(t, 1000, 1)
	if KernelParallelism() != runtime.GOMAXPROCS(0) {
		t.Fatalf("pool size %d after restart, want %d", KernelParallelism(), runtime.GOMAXPROCS(0))
	}
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
