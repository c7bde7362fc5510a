package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bit-exact differential tests for the int8 fast paths: the banded
// prepacked convolution, the sharded activation quantizer, the max-pool
// interior path, and the four-column SWAR microkernel. Each is compared
// with a loop nest that shares no code with it, so any difference at all
// is a bug.

// checkBandedQConv runs the int8 conv on panels packed ahead of time (pq,
// which callers reuse across calls) and on panels packed from qw for this
// call, and requires both to equal the loop-nest reference refQConv bit
// for bit.
func checkBandedQConv(t *testing.T, name string, in *Tensor, qw *QTensor, pq *PackedQWeights, bias []float32, spec Conv2DSpec, act Act) {
	t.Helper()
	want := refQConv(in, qw, bias, spec, act, 0.1)
	got := dirty(want.Shape...)
	Conv2DQPrepackedInto(got, in, pq, qw, bias, spec, act, 0.1)
	if !bitsEqual(got.Data, want.Data) {
		t.Errorf("%s: banded prepacked int8 conv differs from the loop-nest reference", name)
	}
	unpacked := dirty(want.Shape...)
	Conv2DQPrepackedInto(unpacked, in, PackQConvWeights(qw), qw, bias, spec, act, 0.1)
	if !bitsEqual(unpacked.Data, want.Data) {
		t.Errorf("%s: int8 conv packed per call differs from the loop-nest reference", name)
	}
}

// TestConv2DQPrepackedBandSweep crosses kernel 1/3/5/7 with stride 1-3,
// per-axis padding 0-2 (symmetric specs where the two agree, Asym ones
// otherwise), bias nil or not, per-tensor and per-channel weight scales
// and every epilogue activation, on planes that give odd pixel counts,
// a single output pixel, and H or W smaller than the kernel.
func TestConv2DQPrepackedBandSweep(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	const cin, cout = 3, 5
	acts := []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh}
	cases, single, clipped := 0, 0, 0
	for _, k := range []int{1, 3, 5, 7} {
		planes := [][2]int{{4, 6}, {7, 5}, {2, 9}, {k, k}}
		w := randTensor(r, cout, cin, k, k)
		quantized := []*QTensor{QuantizeSymmetric(w), QuantizePerChannel(w)}
		packed := []*PackedQWeights{PackQConvWeights(quantized[0]), PackQConvWeights(quantized[1])}
		for stride := 1; stride <= 3; stride++ {
			for padH := 0; padH <= 2; padH++ {
				for padW := 0; padW <= 2; padW++ {
					spec := Conv2DSpec{Stride: stride, PadH: padH, PadW: padW, Asym: true}
					if padH == padW {
						spec = Conv2DSpec{Stride: stride, Pad: padH}
					}
					for _, hw := range planes {
						h, wd := hw[0], hw[1]
						if h+2*padH < k || wd+2*padW < k {
							continue
						}
						hout, wout := spec.OutDims(h, wd, k, k)
						if hout*wout == 1 {
							single++
						}
						if h < k || wd < k {
							clipped++
						}
						in := randTensor(r, cin, h, wd)
						for _, bias := range [][]float32{nil, randTensor(r, cout).Data} {
							for qi, qw := range quantized {
								for _, act := range acts {
									name := fmt.Sprintf("k%d s%d pad%dx%d in%dx%d bias=%v perchannel=%v act=%d",
										k, stride, padH, padW, h, wd, bias != nil, qi == 1, act)
									checkBandedQConv(t, name, in, qw, packed[qi], bias, spec, act)
									cases++
								}
							}
						}
					}
				}
			}
		}
	}
	if cases < 5000 || single == 0 || clipped == 0 {
		t.Fatalf("sweep ran %d cases, %d with one output pixel, %d with a plane below the kernel", cases, single, clipped)
	}
}

// TestConv2DQPrepackedShardedBands uses layers above the parallel
// threshold with an odd pixel count, so the pooled run cuts several
// bands, none a multiple of the requantize tile: a 3x3 padded conv (the
// copy and the per-tap lowering), a strided one, and a 1x1 (the
// transposing lowering, band edges inside its pixel tile).
func TestConv2DQPrepackedShardedBands(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for _, c := range []convCase{
		{"3x3-pad", 8, 45, 45, 32, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
		{"3x3-stride2", 16, 63, 63, 40, 3, 3, Conv2DSpec{Stride: 2}},
		{"1x1", 64, 37, 41, 48, 1, 1, Conv2DSpec{Stride: 1}},
	} {
		spec := c.spec.check()
		hout, wout := spec.OutDims(c.h, c.w, c.kh, c.kw)
		ncols := hout * wout
		if ncols%2 == 0 || ncols*c.cin*c.kh*c.kw*c.cout < parallelThresholdMACs {
			t.Fatalf("%s: %d pixels do not exercise the sharded odd-row path", c.name, ncols)
		}
		qw := QuantizePerChannel(randTensor(r, c.cout, c.cin, c.kh, c.kw))
		pq := PackQConvWeights(qw)
		bias := randTensor(r, c.cout).Data
		checkBandedQConv(t, c.name, randTensor(r, c.cin, c.h, c.w), qw, pq, bias, spec, ActReLU)
	}
}

// quantizeDynamic runs the activation quantizer as the int8 kernels do, on
// a scratch borrowed from their pool.
func quantizeDynamic(dst []int8, src []float32) float32 {
	s := qscratchPool.Get().(*qscratch)
	defer qscratchPool.Put(s)
	return s.quantize(dst, src)
}

// quantizeDynamicSerial is the activation quantizer as it stood before it
// was sharded, kept here as the reference.
func quantizeDynamicSerial(dst []int8, src []float32) float32 {
	var maxAbs float32
	for _, v := range src {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	inv := 1 / scale
	for i, v := range src {
		r := v * inv
		if r >= 0 {
			r += 0.5
		} else {
			r -= 0.5
		}
		n := int32(r)
		if n > 127 {
			n = 127
		} else if n < -127 {
			n = -127
		}
		dst[i] = int8(n)
	}
	return scale
}

func checkQuantizer(t *testing.T, name string, src []float32) {
	t.Helper()
	want := make([]int8, len(src))
	wantScale := quantizeDynamicSerial(want, src)
	got := make([]int8, len(src))
	for i := range got {
		got[i] = -128 // a code the quantizer never emits
	}
	scale := quantizeDynamic(got, src)
	if math.Float32bits(scale) != math.Float32bits(wantScale) {
		t.Errorf("%s: scale %v, want %v", name, scale, wantScale)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: code[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// TestQuantizeDynamicShardedMatchesSerial walks lengths either side of
// the sharding threshold and of a chunk boundary, puts the maximum in
// the last (partial) chunk, and feeds the inputs that stress the
// reduction: all zeros, infinities, and NaNs, which must never win it.
func TestQuantizeDynamicShardedMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	for _, n := range []int{
		quantChunk, quantParallelElems - 1, quantParallelElems, quantParallelElems + 1,
		quantParallelElems + quantChunk - 1, quantParallelElems + quantChunk, quantParallelElems + quantChunk + 1,
		5*quantChunk + 17,
	} {
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(r.NormFloat64())
		}
		checkQuantizer(t, fmt.Sprintf("n=%d", n), src)

		src[n-1] = -40
		checkQuantizer(t, fmt.Sprintf("n=%d max last", n), src)

		src[n/3] = float32(math.NaN())
		src[n-2] = float32(math.NaN())
		checkQuantizer(t, fmt.Sprintf("n=%d NaN", n), src)

		src[n/2] = float32(math.Inf(-1))
		src[0] = float32(math.Inf(1))
		checkQuantizer(t, fmt.Sprintf("n=%d Inf", n), src)

		clear(src)
		checkQuantizer(t, fmt.Sprintf("n=%d zero", n), src)
		if s := quantizeDynamic(make([]int8, n), src); s != 1 {
			t.Errorf("n=%d: all-zero scale %v, want 1", n, s)
		}
	}
}

// maxPoolReference pools every window through maxPoolWindow, never
// entering the interior loop.
func maxPoolReference(src *Tensor, spec PoolSpec) *Tensor {
	c, h, w := src.Shape[0], src.Shape[1], src.Shape[2]
	hout, wout := spec.OutDim(h), spec.OutDim(w)
	out := New(c, hout, wout)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				out.Data[(ic*hout+oy)*wout+ox] = maxPoolWindow(src.Data[ic*h*w:(ic+1)*h*w], h, w, oy, ox, spec.check())
			}
		}
	}
	return out
}

// poolInput is random data salted with the values a max must order
// carefully: NaN, both zeros, and both infinities.
func poolInput(r *rand.Rand, shape ...int) *Tensor {
	in := randTensor(r, shape...)
	special := []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := 0; i < len(in.Data); i += 7 {
		in.Data[i] = special[r.Intn(len(special))]
	}
	return in
}

// TestMaxPoolInteriorMatchesWindowReference sweeps kernel 2-3, stride
// 1-3 and pad 0-1 over planes from one element up, including planes
// smaller than the window, against the per-window reference.
func TestMaxPoolInteriorMatchesWindowReference(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	cases := 0
	for k := 2; k <= 3; k++ {
		for stride := 1; stride <= 3; stride++ {
			for pad := 0; pad <= 1; pad++ {
				for _, h := range []int{1, 2, 3, 4, 7, 10} {
					for _, w := range []int{1, 2, 3, 5, 8, 11} {
						if h+2*pad < k || w+2*pad < k {
							continue
						}
						spec := PoolSpec{Kernel: k, Stride: stride, Pad: pad}
						in := poolInput(r, 3, h, w)
						name := fmt.Sprintf("k%d s%d p%d in%dx%d", k, stride, pad, h, w)
						want := maxPoolReference(in, spec)
						got := dirty(want.Shape...)
						MaxPool2DInto(got, in, spec)
						if !bitsEqual(got.Data, want.Data) {
							t.Errorf("%s: MaxPool2DInto differs from the per-window reference", name)
						}
						cases++
					}
				}
			}
		}
	}
	if cases < 300 {
		t.Fatalf("sweep ran only %d cases", cases)
	}
}

// TestMaxPoolShardedMatchesSerial crosses the sharding threshold: the
// pooled run, one serial pass over all planes, and the per-window
// reference must agree bit for bit, padded and not.
func TestMaxPoolShardedMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	for _, spec := range []PoolSpec{{Kernel: 3, Stride: 2}, {Kernel: 3, Stride: 2, Pad: 1}, {Kernel: 2}} {
		spec = spec.check()
		const c, h, w = 64, 81, 83
		in := poolInput(r, c, h, w)
		want := maxPoolReference(in, spec)
		if want.Shape.NumElems()*spec.Kernel*spec.Kernel < maxPoolParallelTaps {
			t.Fatalf("%+v: pooling too small to hit the sharded path", spec)
		}
		pooled := dirty(want.Shape...)
		MaxPool2DInto(pooled, in, spec)
		if !bitsEqual(pooled.Data, want.Data) {
			t.Errorf("%+v: pooled max-pool differs from the per-window reference", spec)
		}
		serial := dirty(want.Shape...)
		maxPoolPlanes(serial.Data, in.Data, h, w, want.Shape[1], want.Shape[2], spec, 0, c)
		if !bitsEqual(serial.Data, want.Data) {
			t.Errorf("%+v: serial max-pool differs from the per-window reference", spec)
		}
	}
}

// TestMaxPoolSpecialWindows pins the interior select on single 3×3
// windows holding several of the values poolInput salts only one in seven
// taps with: between −0 and +0 the first tap wins, a NaN never wins, +Inf
// does, and a window of nothing but NaN and −Inf keeps the running max's
// starting value negInf (−MaxFloat32), as maxPoolWindow always has.
func TestMaxPoolSpecialWindows(t *testing.T) {
	nan, negNaN := float32(math.NaN()), math.Float32frombits(0xffc00000)
	negZero, inf := float32(math.Copysign(0, -1)), float32(math.Inf(1))
	for _, tc := range []struct {
		name string
		taps [9]float32
		want float32
	}{
		{"-0 then +0", [9]float32{-1, -2, negZero, -3, 0, -4, -5, -6, -7}, negZero},
		{"+0 then -0", [9]float32{-1, 0, -2, -3, -4, -5, negZero, -6, -7}, 0},
		{"all NaN", [9]float32{nan, negNaN, nan, nan, nan, negNaN, nan, nan, nan}, negInf},
		{"NaN before the max", [9]float32{nan, 1, 2, 3, negNaN, 0.5, -1, 4, 2}, 4},
		{"NaN after the max", [9]float32{4, nan, 2, 3, 1, nan, -1, 0, negNaN}, 4},
		{"+Inf", [9]float32{1, 2, nan, 3, inf, -inf, 0, negZero, 5}, inf},
		{"-Inf only", [9]float32{-inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf}, negInf},
		{"-Inf and NaN", [9]float32{-inf, nan, -inf, negNaN, -inf, nan, -inf, nan, -inf}, negInf},
	} {
		// One row of span interior windows at the given stride, the
		// special one at output column at: every lane of maxPoolPlanes'
		// four-window passes and their tail. The other windows overlap
		// it and are checked against maxPoolWindow.
		for _, stride := range []int{1, 2} {
			spec := PoolSpec{Kernel: 3, Stride: stride}
			for span := 1; span <= 9; span++ {
				w := stride*(span-1) + 3
				for at := 0; at < span; at++ {
					in := New(1, 3, w).Fill(-10)
					for ky := 0; ky < 3; ky++ {
						copy(in.Data[ky*w+at*stride:], tc.taps[ky*3:ky*3+3])
					}
					got := dirty(1, 1, span)
					MaxPool2DInto(got, in, spec)
					for ox := range got.Data {
						want := maxPoolWindow(in.Data, 3, w, 0, ox, spec)
						if ox == at && math.Float32bits(want) != math.Float32bits(tc.want) {
							t.Fatalf("%s: maxPoolWindow %#08x, want %#08x", tc.name, math.Float32bits(want), math.Float32bits(tc.want))
						}
						if g, r := math.Float32bits(got.Data[ox]), math.Float32bits(want); g != r {
							t.Errorf("%s stride %d span %d at %d: window %d = %#08x, maxPoolWindow %#08x", tc.name, stride, span, at, ox, g, r)
						}
					}
				}
			}
		}
	}
}

// checkQGemmKernels asserts the int8 tile loop over all rows, sharded by
// rows across the pool, and run as two row ranges split at rows 1, 2, 4
// and 5 (so the lane triples fall differently), equals the plain triple
// loop.
func checkQGemmKernels(t *testing.T, name string, a, b []int8, m, k, n int) {
	t.Helper()
	want := make([]int32, m*n)
	qnaive(want, a, b, m, k, n)
	check := func(kernel string, got []int32) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s m=%d k=%d n=%d: %s dst[%d] = %d, want %d", name, m, k, n, kernel, i, got[i], want[i])
			}
		}
	}
	got := make([]int32, m*n)
	qgemmSerial(got, a, b, m, k, n)
	check("serial", got)

	for i := range got {
		got[i] = math.MinInt32
	}
	qgemmSharded(got, a, b, m, k, n, 1)
	check("sharded by rows", got)

	pq := packB(gemmInt8, b, k, n)
	for _, split := range []int{1, 2, 4, 5} {
		if split >= m {
			break
		}
		for i := range got {
			got[i] = math.MinInt32
		}
		gemmInt8.rowRange(got, a, pq, 0, split)
		gemmInt8.rowRange(got, a, pq, split, m)
		check(fmt.Sprintf("row-range split at %d", split), got)
	}
}

// TestQGemmPanelRowsMatchesNaive covers M mod 3 of 0, 1 and 2 (a short
// last lane triple of one or two rows, M = 1 as the dense layer runs it),
// N mod 4 of 0 to 3 (the column tail after the four-column groups), K off
// the interleave, more than one K- and N-block, and a 64-row band.
func TestQGemmPanelRowsMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	for _, c := range []struct{ m, k, n int }{
		{1, 1, 1}, {1, 9, 4}, {2, 8, 5}, {3, 7, 6}, {4, 13, 7}, {5, 16, 8},
		{1, 30, 11}, {7, qgemmKC + 2, 9}, {6, 2*qgemmKC + 3, 10},
		{5, 30, qgemmNC + 3}, {9, qgemmKC - 1, 2*qgemmNC + 1}, {64, 144, 64},
		{8, qgemmKC, 13}, {10, 3*qgemmKC + 1, 14}, {11, 70, 3}, {2, 5, 2},
		{64, 4 * qgemmKC, 1000},
	} {
		checkQGemmKernels(t, "random", randQ(r, c.m*c.k), randQ(r, c.k*c.n), c.m, c.k, c.n)
	}
}

// TestQGemmLaneSumEdge pins every code at +-127 over a full
// qgemmKC-deep K-block, the largest lane sum a column accumulator can
// reach (127*127*qgemmKC in each lane): row triples in all eight sign
// patterns, against columns of either sign, through the four-column
// groups and the column tail.
func TestQGemmLaneSumEdge(t *testing.T) {
	const m, k, n = 3 * 8, qgemmKC, 7
	for _, colSign := range [][]int8{{127}, {-127}, {127, -127}} {
		a := make([]int8, m*k)
		for i := range a {
			triple, lane := i/k/3, i/k%3
			a[i] = 127
			if triple>>lane&1 == 1 {
				a[i] = -127
			}
		}
		b := make([]int8, k*n)
		for i := range b {
			b[i] = colSign[(i%n)%len(colSign)]
		}
		checkQGemmKernels(t, fmt.Sprintf("pinned cols %v", colSign), a, b, m, k, n)
	}
}

// TestQGemmRowRangeWritesOnlyItsRows runs the tile loop on row ranges that
// end on a short lane triple, inside and at either end of dst: rows
// outside [rlo, rhi) keep their sentinel, so neither the range's edges nor
// a short triple's missing lanes ever reach them.
func TestQGemmRowRangeWritesOnlyItsRows(t *testing.T) {
	const m, k, n, sentinel = 10, qgemmKC + 6, 9, math.MinInt32 + 7
	r := rand.New(rand.NewSource(131))
	a, b := randQ(r, m*k), randQ(r, k*n)
	want := make([]int32, m*n)
	qnaive(want, a, b, m, k, n)
	pq := packB(gemmInt8, b, k, n)
	for _, rr := range [][2]int{{2, 6}, {3, 8}, {0, 1}, {0, 5}, {8, 10}, {9, 10}, {4, 5}} {
		got := make([]int32, m*n)
		for i := range got {
			got[i] = sentinel
		}
		gemmInt8.rowRange(got, a, pq, rr[0], rr[1])
		for i := range got {
			in := i/n >= rr[0] && i/n < rr[1]
			if in && got[i] != want[i] {
				t.Fatalf("rows %v: dst[%d] = %d, want %d", rr, i, got[i], want[i])
			}
			if !in && got[i] != sentinel {
				t.Fatalf("rows %v: row %d outside the range was written: dst[%d] = %d", rr, i/n, i, got[i])
			}
		}
	}
}
