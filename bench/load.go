package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opFunc performs op number op for one client and returns the output
// values; the generator verifies them.
type opFunc func(client, op int) ([]float32, error)

// loadSpec describes one closed loop: clients goroutines stride over ops
// operations, each sending its next op only when the last has returned.
type loadSpec struct {
	ops     int
	clients int
	do      opFunc
	// refs[op%len(refs)] is the output op must reproduce bit for bit.
	refs [][]float32
	// maxWall stops clients from starting new ops, so a program that got
	// much slower still ends inside the driver's time limit.
	maxWall time.Duration
	// segOps and cal, when set, cut the loop into segments of segOps ops;
	// before, between and after them every client is stopped and cal
	// samples the host's speed.
	segOps int
	cal    *calibrator
	// tr, when set, records a root "request" span per op with one child
	// named child around the call into the layer.
	tr    *tracer
	child string
}

// loadResult is what one loop measured, as measured and normalised: each
// segment's latencies, wall time and CPU time divided by its host factor
// (1 without a calibrator). Calibration phases are in neither.
type loadResult struct {
	latMs, normLatMs []float64 // one per attempted op
	attempted        int
	failed           int
	wall, normWall   time.Duration
	cpu, normCPU     time.Duration
}

// hostFactor is the loop's wall time over its normalised wall time.
func (r loadResult) hostFactor() float64 {
	if r.normWall <= 0 {
		return 1
	}
	return float64(r.wall) / float64(r.normWall)
}

// runLoad drives the loop and verifies every output. An op that returns
// an error, or an output that differs from its reference in any bit,
// counts as one failure.
func runLoad(s loadSpec) loadResult {
	segOps := max(s.ops, 1)
	if s.cal != nil && s.segOps > 0 {
		segOps = s.segOps
	}
	// lat[op] stays negative for an op maxWall kept from starting.
	lat := make([]float64, s.ops)
	for i := range lat {
		lat[i] = -1
	}
	type segment struct{ wall, cpu time.Duration }
	segs := make([]segment, 0, (s.ops+segOps-1)/segOps)
	var failed atomic.Int64
	deadline := time.Now().Add(s.maxWall)

	// The clients live for the whole loop and are handed one segment at a
	// time, so that the generator allocates nothing per op: the traced
	// run's allocation counters cover this loop.
	type bounds struct{ lo, hi int }
	work := make([]chan bounds, s.clients)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for c := range work {
		work[c] = make(chan bounds)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work[c] {
				for op := b.lo + c; op < b.hi && time.Now().Before(deadline); op += s.clients {
					req := s.tr.begin("request", noParent, op)
					call := s.tr.begin(s.child, req, op)
					t0 := time.Now()
					out, err := s.do(c, op)
					lat[op] = float64(time.Since(t0)) / float64(time.Millisecond)
					s.tr.end(call)
					if err != nil || !bitEqual(out, s.refs[op%len(s.refs)]) {
						failed.Add(1)
					}
					s.tr.end(req)
				}
				done <- struct{}{}
			}
		}()
	}
	s.cal.phase()
	for lo := 0; lo < s.ops; lo += segOps {
		cpu0 := cpuTime()
		start := time.Now()
		for _, w := range work {
			w <- bounds{lo, min(lo+segOps, s.ops)}
		}
		for range work {
			<-done
		}
		segs = append(segs, segment{time.Since(start), cpuTime() - cpu0})
		s.cal.phase()
	}
	for _, w := range work {
		close(w)
	}
	wg.Wait()

	res := loadResult{latMs: make([]float64, 0, s.ops), normLatMs: make([]float64, 0, s.ops)}
	for i, seg := range segs {
		f := s.cal.factor(i + 1)
		res.wall += seg.wall
		res.cpu += seg.cpu
		res.normWall += time.Duration(float64(seg.wall) / f)
		res.normCPU += time.Duration(float64(seg.cpu) / f)
		for _, ms := range lat[i*segOps : min((i+1)*segOps, s.ops)] {
			if ms >= 0 {
				res.latMs = append(res.latMs, ms)
				res.normLatMs = append(res.normLatMs, ms/f)
			}
		}
	}
	res.attempted, res.failed = len(res.latMs), int(failed.Load())
	return res
}

// bitEqual reports whether two float slices hold the same bit patterns.
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// percentile returns the p-th percentile (0 < p <= 100) of values by the
// nearest-rank method: the smallest value with at least p percent of the
// sample at or below it. It returns 0 for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(values []float64) float64 { return percentile(values, 50) }

// cpuTime returns the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
