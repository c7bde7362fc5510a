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

// packB packs a row-major [k, n] B matrix under g's blocking: the operand
// the tile-loop tests and benchmarks multiply by.
func packB[T int8 | float32, P float32 | byte, A any](g *gemm[T, P, A], b []T, k, n int) *Packed[P] {
	if len(b) != k*n {
		panic("packB: data length does not match k x n")
	}
	return g.pack(b, k, n, n, 1, nil)
}

// blockedMatMul is a x b through the FP32 tile loop on the calling
// goroutine, b packed now.
func blockedMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := dirty(m, n)
	gemmFP32.rowRange(out.Data, a.Data, packB(gemmFP32, b.Data, k, n), 0, m)
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
		{2, gemmKC + 1, gemmNC + 3}, {7, 300, 17}, {16, 130, 515},
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

// TestMatMulParallelBitwiseEqualsSerial verifies the row-shard split
// changes nothing: identical bits, not just close values, on an odd M cut
// by the worker pool wherever its chunks fall, odd rows included.
func TestMatMulParallelBitwiseEqualsSerial(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := New(37, 301).Randomize(r, 1)
	b := New(301, 129).Randomize(r, 1)
	serial := blockedMatMul(a, b)
	pw := packB(gemmFP32, b.Data, 301, 129)
	parallel := dirty(37, 129)
	parallelFor(37, 3, func(lo, hi int) {
		gemmFP32.rowRange(parallel.Data, a.Data, pw, lo, hi)
	})
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("element %d: serial %v != parallel %v", i, serial.Data[i], parallel.Data[i])
		}
	}
}

// TestGEMMPairRange pins the pair-to-row mapping the band pass cuts
// pixels with: even boundaries everywhere, the odd remainder row owned by
// the last pair, and full coverage of [0, m).
func TestGEMMPairRange(t *testing.T) {
	cases := []struct {
		lo, hi, m, rlo, rhi int
	}{
		{0, 2, 8, 0, 4},
		{2, 4, 8, 4, 8},
		{0, 3, 5, 0, 5}, // last pair absorbs the remainder row
		{2, 3, 5, 4, 5}, // remainder pair alone
		{0, 1, 1, 0, 1}, // m=1: a single lone row
		{0, 65, 129, 0, 129},
	}
	for _, c := range cases {
		rlo, rhi := gemmPairRange(c.lo, c.hi, c.m)
		if rlo != c.rlo || rhi != c.rhi {
			t.Errorf("gemmPairRange(%d, %d, m=%d) = [%d, %d), want [%d, %d)",
				c.lo, c.hi, c.m, rlo, rhi, c.rlo, c.rhi)
		}
		if rlo%2 != 0 {
			t.Errorf("gemmPairRange(%d, %d, m=%d): shard start %d is odd", c.lo, c.hi, c.m, rlo)
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

	check("Conv2DPrepackedInto", func(d *Tensor) { convPacked(d, in, w, bias, spec, Epilogue{}) }, 4, 5, 5)
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
// first, so the package scratch pool hands the measured calls a buffer
// full of stale lowerings (padding positions included).
func TestConv2DGEMMIntoWithPoolScratch(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	in := New(3, 17, 17).Randomize(r, 1)
	w := New(8, 3, 3, 3).Randomize(r, 1)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	want := New(8, 17, 17)
	convRows(in, w, nil, spec, want, 0, 8*17)
	for run := 0; run < 2; run++ {
		in2, w2 := New(5, 23, 23).Randomize(r, 1), New(4, 5, 3, 3).Randomize(r, 1)
		convPacked(New(4, 21, 21), in2, w2, nil, Conv2DSpec{}, Epilogue{})
		dst := dirty(want.Shape...)
		convPacked(dst, in, w, nil, spec, Epilogue{})
		for i := range want.Data {
			if d := dst.Data[i] - want.Data[i]; !(d < 1e-4 && d > -1e-4) {
				t.Fatalf("run %d: dst[%d] = %v, want %v", run, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

// TestPoolReuse pins the arena contract: same element count reuses the
// buffer (under a fresh shape), different count allocates.
func TestPoolReuse(t *testing.T) {
	p := NewPool()
	a := p.Get(2, 3)
	p.Put(a)
	b := p.Get(3, 2) // same elems, new shape: must reuse storage
	if &b.Data[0] != &a.Data[0] {
		t.Error("pool did not reuse same-elems buffer")
	}
	if !b.Shape.Equal(Shape{3, 2}) {
		t.Errorf("reused tensor shape %v, want [3 2]", b.Shape)
	}
	c := p.Get(4, 4)
	if len(c.Data) != 16 {
		t.Errorf("fresh buffer len %d", len(c.Data))
	}
	st := p.Stats()
	if st.Gets != 3 || st.Misses != 2 || st.Puts != 1 {
		t.Errorf("stats %+v", st)
	}
	p.Preallocate(16, 5)
	d := p.Get(4, 4)
	if st2 := p.Stats(); st2.Misses != 2 {
		t.Errorf("Get after Preallocate missed: %+v", st2)
	}
	_ = d
}

// TestMatVecParallelMatchesSerial pins the sharded MatVec against the
// plain row loop on a matrix above the parallel threshold.
func TestMatVecParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	m, k := 2048, 1024 // 2M MACs: above parallelThresholdMACs
	a := New(m, k).Randomize(r, 1)
	x := make([]float32, k)
	for i := range x {
		x[i] = r.Float32()*2 - 1
	}
	want := make([]float32, m)
	matVecRange(want, a.Data, x, k, 0, m)
	got := MatVec(a, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MatVec[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
