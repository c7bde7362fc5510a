package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMatMul is the straightforward triple loop used as the oracle for
// the blocked kernel.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for kk := 0; kk < k; kk++ {
				sum += a.Data[i*k+kk] * b.Data[kk*n+j]
			}
			out.Data[i*n+j] = sum
		}
	}
	return out
}

// matMulJob views dst [m, n] = a [m, k] x b [k, n], all row-major, as
// what the channel-major kernel computes: the pointwise convolution of b,
// a [k, 1, n] plane, by a's rows, [m, k, 1, 1] weights read in place. Its
// shard takes columns (pixels), or row pairs (channel pairs) when byPairs
// is set.
func matMulJob(dst, a, b []float32, m, k, n int, byPairs bool) *convJob {
	return &convJob{out: dst, in: b, w: a, k: k, npix: n, spec: Conv2DSpec{Stride: 1}, byPairs: byPairs,
		geo: convGeom{cin: k, h: 1, wd: n, cout: m, kh: 1, kw: 1, hout: 1, wout: n}, kernel: (*convJob).band}
}

// blockedMatMul is a x b through the channel-major kernel on the calling
// goroutine.
func blockedMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := dirty(m, n)
	matMulJob(out.Data, a.Data, b.Data, m, k, n, false).shard(0, n)
	return out
}

func maxAbsDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// TestBlockedMatMulMatchesNaive sweeps awkward sizes around the blocking
// parameters (K remainders, N remainders, tiny dims) against the naive
// oracle.
func TestBlockedMatMulMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {4, gemmKC, 9}, {5, gemmKC - 1, 7},
		{2, gemmKC + 1, gemmBand + 3}, {7, 300, 17}, {16, 130, 515},
		{9, 2*gemmKC + 3, 33},
	}
	for _, c := range cases {
		a := New(c.m, c.k).Randomize(r, 1)
		b := New(c.k, c.n).Randomize(r, 1)
		want := naiveMatMul(a, b)
		got := blockedMatMul(a, b)
		// The blocked kernel reassociates the K sum, so allow a small
		// accumulation tolerance scaled by K.
		tol := 1e-5 * float64(c.k)
		if d := maxAbsDiff(got.Data, want.Data); d > tol {
			t.Errorf("m=%d k=%d n=%d: blocked vs naive diff %g > %g", c.m, c.k, c.n, d, tol)
		}
	}
}

// TestMatMulParallelBitwiseEqualsSerial verifies the row-pair split
// changes nothing: identical bits, not just close values, on an odd M cut
// by the worker pool wherever its chunks fall, odd rows included.
func TestMatMulParallelBitwiseEqualsSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := New(37, 301).Randomize(r, 1)
	b := New(301, 129).Randomize(r, 1)
	serial := blockedMatMul(a, b)
	parallel := dirty(37, 129)
	parallelFor(19, 3, matMulJob(parallel.Data, a.Data, b.Data, 37, 301, 129, true).shard)
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("element %d: serial %v != parallel %v", i, serial.Data[i], parallel.Data[i])
		}
	}
}

// TestConvMACsDispatchThreshold pins the threshold itself so dispatch
// behaviour cannot drift silently. A convolution's MAC count — filter
// elements times output positions, the m*k*n of its GEMM lowering —
// decides whether it shards: a 16->16 3x3 conv on a 56x56
// output (7.2M MACs) is above the threshold, the same conv on 14x14
// (450K MACs) is below.
func TestConvMACsDispatchThreshold(t *testing.T) {
	filterElems := 16 * 16 * 3 * 3
	if filterElems*56*56 < ParallelThresholdMACs() {
		t.Error("56x56 16->16 3x3 conv should dispatch parallel")
	}
	if filterElems*14*14 >= ParallelThresholdMACs() {
		t.Error("14x14 16->16 3x3 conv should stay serial")
	}
	if ParallelThresholdMACs() != 1<<20 {
		t.Errorf("parallel threshold changed to %d; update benchmarks and this pin deliberately", ParallelThresholdMACs())
	}
}

// dirty returns a tensor filled with a sentinel value, standing in for a
// recycled pool buffer with stale contents.
func dirty(shape ...int) *Tensor {
	return New(shape...).Fill(float32(math.NaN()))
}

// into allocates a zeroed dst of shape and runs kernel into it.
func into(kernel func(dst *Tensor), shape ...int) *Tensor {
	dst := New(shape...)
	kernel(dst)
	return dst
}

// TestIntoKernelsOverwriteDirtyBuffers runs every destination-passing
// kernel into a zeroed dst and into a NaN-poisoned one and requires the
// two to agree bit for bit — any cell the kernel forgets to write stays
// NaN on one side and 0 on the other.
func TestIntoKernelsOverwriteDirtyBuffers(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	in := New(3, 9, 9).Randomize(r, 1)
	w := New(4, 3, 3, 3).Randomize(r, 1)
	dw := New(3, 3, 3).Randomize(r, 1)
	bias := []float32{0.1, -0.2, 0.3, -0.4}
	spec := Conv2DSpec{Stride: 2, Pad: 1}

	check := func(name string, run func(dst *Tensor), shape ...int) {
		t.Helper()
		want := into(run, shape...)
		dst := dirty(shape...)
		run(dst)
		for i := range want.Data {
			if math.Float32bits(dst.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: dst[%d] = %v, want %v (stale cell?)", name, i, dst.Data[i], want.Data[i])
			}
		}
	}

	check("Conv2DInto", func(d *Tensor) { Conv2DInto(d, in, w, bias, spec, Epilogue{}) }, 4, 5, 5)
	check("DepthwiseConv2DFusedInto", func(d *Tensor) { DepthwiseConv2DFusedInto(d, in, dw, bias[:3], spec, Epilogue{}) }, 3, 5, 5)
	check("AddInto", func(d *Tensor) { AddInto(d, in, in) }, 3, 9, 9)
	check("ConcatChannelsInto", func(d *Tensor) { ConcatChannelsInto(d, in, in) }, 6, 9, 9)
	check("Pad2DInto", func(d *Tensor) { Pad2DInto(d, in, 2) }, 3, 13, 13)
	check("UpsampleNearest2DInto", func(d *Tensor) { UpsampleNearest2DInto(d, in, 2) }, 3, 18, 18)
	check("ShuffleChannelsInto", func(d *Tensor) { ShuffleChannelsInto(d, in, 3) }, 3, 9, 9)
	for _, act := range []Act{ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh} {
		want := in.Clone()
		Epilogue{Act: act, Alpha: 0.1}.ApplyInto(want)
		got := dirty(3, 9, 9)
		ActivationInto(got, in, act, 0.1)
		assertBitEqual(t, got, want, "ActivationInto/"+actName(act))
	}

	gamma := []float32{1, 0.5, 2}
	beta := []float32{0, 1, -1}
	mean := []float32{0.1, 0.2, 0.3}
	variance := []float32{1, 2, 3}
	check("BatchNormInto", func(d *Tensor) { BatchNormInto(d, in, gamma, beta, mean, variance, 1e-5) }, 3, 9, 9)

	pspec := PoolSpec{Kernel: 3, Stride: 2, Pad: 1}
	check("MaxPool2DInto", func(d *Tensor) { MaxPool2DInto(d, in, pspec) }, 3, 5, 5)
	check("AvgPool2DInto", func(d *Tensor) { AvgPool2DInto(d, in, pspec) }, 3, 5, 5)

	// Vector-destination kernels.
	dm := New(5, len(in.Data)).Randomize(r, 1)
	check("DenseInto", func(d *Tensor) { DenseInto(d.Data, dm, []float32{1, 2, 3, 4, 5}, in.Data) }, 5)
	check("SoftmaxInto", func(d *Tensor) { SoftmaxInto(d.Data, in.Data[:5]) }, 5)
	check("GlobalAvgPool2DInto", func(d *Tensor) { GlobalAvgPool2DInto(d.Data, in) }, 3)
}

// TestConv2DGEMMIntoWithPoolScratch runs the GEMM conv against dirty
// recycled band scratch: a larger convolution over different values goes
// first, so the package scratch pool hands the measured calls
// accumulators and windows full of stale values.
func TestConv2DGEMMIntoWithPoolScratch(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	in := New(3, 17, 17).Randomize(r, 1)
	w := New(8, 3, 3, 3).Randomize(r, 1)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	want := refConvBlocked(in, w, nil, spec, Epilogue{})
	for run := 0; run < 2; run++ {
		in2, w2 := New(5, 23, 23).Randomize(r, 1), New(4, 5, 3, 3).Randomize(r, 1)
		Conv2DInto(New(4, 21, 21), in2, w2, nil, Conv2DSpec{}, Epilogue{})
		dst := dirty(want.Shape...)
		Conv2DInto(dst, in, w, nil, spec, Epilogue{})
		for i := range want.Data {
			if !bitsEqual(dst.Data[i:i+1], want.Data[i:i+1]) {
				t.Fatalf("run %d: dst[%d] = %v, want %v", run, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatVecParallelMatchesSerial pins matVecInto, serial and sharded,
// against the dense layer's definition — each row one `sum +=` chain
// over j, a row at a time — for every m mod 4 (the four-row passes and
// their tail) on both sides of parallelThresholdMACs: 700..703 rows of
// 1600 are above it.
func TestMatVecParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for _, k := range []int{0, 1, 7, 1600} {
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 700, 701, 702, 703} {
			a, x := make([]float32, m*k), make([]float32, k)
			for i := range a {
				a[i] = r.Float32()*2 - 1
			}
			for i := range x {
				x[i] = r.Float32()*2 - 1
			}
			got := dirty(m).Data
			matVecInto(got, a, x, m, k)
			for i := 0; i < m; i++ {
				var want float32
				for j := 0; j < k; j++ {
					want += a[i*k+j] * x[j]
				}
				if math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("m=%d k=%d: matVecInto[%d] = %v, want %v", m, k, i, got[i], want)
				}
			}
		}
	}
}
