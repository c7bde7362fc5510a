package main

import (
	"sort"
	"sync"
	"time"
)

// This host is a shared two-vCPU VM whose speed changes under the
// program: one process streaming MobileNet-v2 ops read p50 144 ms in its
// first 25 s and 163 ms in its tenth, and on a bad hour the same loop's
// p50 ranged over 26 %. No wall-clock metric of a 20 s run repeats to
// within a few percent. What a run can do is measure the host beside the
// program. The timed loop is cut into short segments, and
// before, between and after them, while every client is stopped and the
// system under test is idle, a fixed compute kernel is timed on every
// core. A segment's host factor is the kernel's mean time in the phases
// around it over calUnit; the segment's latencies, wall time and CPU time
// are divided by it. The kernel never runs while an op does, so a program
// that burns more CPU cannot slow the ruler it is measured with.
// README.md, "Host-speed normalisation", has the evidence; the values as
// measured are printed beside the normalised ones.

const (
	// calDim is the side of the calibration matmul; one run takes about
	// half a millisecond here.
	calDim = 96
	// calPhaseSamples kernel runs per core make one phase, about 5 ms.
	calPhaseSamples = 10
	// calWindow phases before and calWindow after a segment give its
	// host factor: wide enough for a steady mean, narrow enough to follow
	// a slow spell that lasts a second.
	calWindow = 2
	// calTrim is the share of the slowest samples left out of the mean.
	// The mean, not the median, is what follows this host: it slows down
	// by stalling for milliseconds at a time, which an op of 20-150 ms
	// averages over and most half-millisecond samples miss. The trim
	// drops the few samples a long stall hit, which add only variance.
	calTrim = 0.05
)

// calUnit is the kernel time that counts as host factor 1, by the number
// of cores sampled at once. It is only an anchor that keeps normalised
// values in real units: about this host's mean while the README's tables
// were measured. A width the table lacks is not normalised.
var calUnit = map[int]time.Duration{
	1: 500 * time.Microsecond,
	2: 550 * time.Microsecond,
}

// calibrator times a fixed kernel — a register-blocked matrix product in
// plain Go, the same kind of scalar multiply-add loop the engine's kernels
// are made of — on width cores at once, one worker goroutine each. The
// workers live until close and a phase allocates nothing, so sampling adds
// nothing to the allocation counters of the loop around it. A nil
// *calibrator measures nothing and normalises nothing.
type calibrator struct {
	start []chan struct{} // one per worker
	done  chan [calPhaseSamples]float64
	wg    sync.WaitGroup
	// samples holds every phase's kernel times in ns, len(start) *
	// calPhaseSamples of them per phase.
	samples []float64
}

// newCalibrator starts a calibrator of the given width with room for
// phases phases.
func newCalibrator(width, phases int) *calibrator {
	if _, ok := calUnit[width]; !ok {
		return nil
	}
	k := &calibrator{
		done:    make(chan [calPhaseSamples]float64),
		samples: make([]float64, 0, phases*width*calPhaseSamples),
	}
	a, b := make([]float32, calDim*calDim), make([]float32, calDim*calDim)
	for i := range a {
		a[i], b[i] = float32(i%7), float32(i%5)
	}
	for w := 0; w < width; w++ {
		start := make(chan struct{})
		k.start = append(k.start, start)
		k.wg.Add(1)
		go func() {
			defer k.wg.Done()
			c := make([]float32, calDim*calDim)
			for range start {
				var took [calPhaseSamples]float64
				for i := range took {
					t0 := time.Now()
					calKernel(a, b, c)
					took[i] = float64(time.Since(t0))
				}
				k.done <- took
			}
		}()
	}
	return k
}

// close stops the workers and returns when they have ended.
func (k *calibrator) close() {
	if k == nil {
		return
	}
	for _, start := range k.start {
		close(start)
	}
	k.wg.Wait()
}

// phase times the kernel calPhaseSamples times on each core at once. The
// caller makes sure the system under test is idle meanwhile.
func (k *calibrator) phase() {
	if k == nil {
		return
	}
	for _, start := range k.start {
		start <- struct{}{}
	}
	for range k.start {
		took := <-k.done
		k.samples = append(k.samples, took[:]...)
	}
}

// factor is how much slower than calUnit the host ran around the work
// done between phase after-1 and phase after: the trimmed mean of the
// calWindow phases on either side over the unit. It is 1 for a nil
// calibrator.
func (k *calibrator) factor(after int) float64 {
	if k == nil {
		return 1
	}
	per := len(k.start) * calPhaseSamples
	lo, hi := max(after-calWindow, 0)*per, min((after+calWindow)*per, len(k.samples))
	window := append([]float64(nil), k.samples[lo:hi]...)
	sort.Float64s(window)
	window = window[:len(window)-int(calTrim*float64(len(window)))]
	sum := 0.0
	for _, v := range window {
		sum += v
	}
	return sum / float64(len(window)) / float64(calUnit[len(k.start)])
}

// calKernel computes c = a x b on calDim-square matrices in 4x4 register
// blocks.
func calKernel(a, b, c []float32) {
	const n = calDim
	for i := 0; i < n; i += 4 {
		for j := 0; j < n; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13, c20, c21, c22, c23, c30, c31, c32, c33 float32
			for k := 0; k < n; k++ {
				a0, a1, a2, a3 := a[i*n+k], a[(i+1)*n+k], a[(i+2)*n+k], a[(i+3)*n+k]
				b0, b1, b2, b3 := b[k*n+j], b[k*n+j+1], b[k*n+j+2], b[k*n+j+3]
				c00 += a0 * b0
				c01 += a0 * b1
				c02 += a0 * b2
				c03 += a0 * b3
				c10 += a1 * b0
				c11 += a1 * b1
				c12 += a1 * b2
				c13 += a1 * b3
				c20 += a2 * b0
				c21 += a2 * b1
				c22 += a2 * b2
				c23 += a2 * b3
				c30 += a3 * b0
				c31 += a3 * b1
				c32 += a3 * b2
				c33 += a3 * b3
			}
			c[i*n+j], c[i*n+j+1], c[i*n+j+2], c[i*n+j+3] = c00, c01, c02, c03
			c[(i+1)*n+j], c[(i+1)*n+j+1], c[(i+1)*n+j+2], c[(i+1)*n+j+3] = c10, c11, c12, c13
			c[(i+2)*n+j], c[(i+2)*n+j+1], c[(i+2)*n+j+2], c[(i+2)*n+j+3] = c20, c21, c22, c23
			c[(i+3)*n+j], c[(i+3)*n+j+1], c[(i+3)*n+j+2], c[(i+3)*n+j+3] = c30, c31, c32, c33
		}
	}
}
