package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Bit-exact differential tests for the shape-specialised kernels: the
// 3x3 depthwise row kernel, the two-row GEMM microkernel, the pointwise
// transpose lowering, the banded pre-packed convolution and the
// branch-free clamp. Each is compared with a plain reference
// that performs the same float32 operations in the same order, so any
// difference at all is a bug.

// depthwiseReference computes the whole depthwise output one pixel at a
// time through depthwisePixel, never entering depthwiseRow3x3.
func depthwiseReference(in, w *Tensor, bias []float32, spec Conv2DSpec) *Tensor {
	spec = spec.check()
	c, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	kh, kw := w.Shape[1], w.Shape[2]
	hout, wout := spec.OutDims(h, wd, kh, kw)
	out := New(c, hout, wout)
	for ic := 0; ic < c; ic++ {
		var b float32
		if bias != nil {
			b = bias[ic]
		}
		plane := in.Data[ic*h*wd : (ic+1)*h*wd]
		taps := w.Data[ic*kh*kw : (ic+1)*kh*kw]
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				out.Data[(ic*hout+oy)*wout+ox] = depthwisePixel(plane, taps, b, h, wd, kh, kw,
					oy*spec.Stride-spec.PadH, ox*spec.Stride-spec.PadW)
			}
		}
	}
	return out
}

// TestDepthwise3x3MatchesPixelReference sweeps every combination of
// stride 1-3, per-axis padding 0-2 (symmetric specs where the two agree,
// Asym ones otherwise), planes from 1 to 9 on a side — including H or W
// below the kernel size, where no interior exists — and bias nil or not,
// through both the plain and the fused-epilogue entry points.
func TestDepthwise3x3MatchesPixelReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	sizes := []int{1, 2, 3, 4, 5, 8, 9}
	const c = 3
	cases := 0
	for stride := 1; stride <= 3; stride++ {
		for padH := 0; padH <= 2; padH++ {
			for padW := 0; padW <= 2; padW++ {
				for _, h := range sizes {
					for _, wd := range sizes {
						if h+2*padH < 3 || wd+2*padW < 3 {
							continue
						}
						spec := Conv2DSpec{Stride: stride, PadH: padH, PadW: padW, Asym: true}
						if padH == padW {
							spec = Conv2DSpec{Stride: stride, Pad: padH}
						}
						in := dirty(c, h, wd).Randomize(r, 1)
						w := New(c, 3, 3).Randomize(r, 1)
						for _, bias := range [][]float32{nil, New(c).Randomize(r, 1).Data} {
							name := fmt.Sprintf("s%d pad%dx%d in%dx%d bias=%v", stride, padH, padW, h, wd, bias != nil)
							want := depthwiseReference(in, w, bias, spec)
							got := dirty(want.Shape...)
							DepthwiseConv2DFusedInto(got, in, w, bias, spec, Epilogue{})
							assertBitEqual(t, got, want, name)

							_, _, _, _, _, epi := bnEpilogue(c, cases)
							epi.Act = ActReLU6
							epi.ApplyInto(want)
							fused := dirty(want.Shape...)
							DepthwiseConv2DFusedInto(fused, in, w, bias, spec, epi)
							assertBitEqual(t, fused, want, name+" fused")
							cases++
						}
					}
				}
			}
		}
	}
	if cases < 400 {
		t.Fatalf("sweep ran only %d cases", cases)
	}
}

// TestDepthwise3x3ShardedMatchesSerial crosses the parallel threshold at
// both strides: the pooled run, one serial pass over all rows, and the
// pixel reference must agree bit for bit.
func TestDepthwise3x3ShardedMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for _, stride := range []int{1, 2} {
		c, hw := 32, 64*stride
		in := New(c, hw, hw).Randomize(r, 1)
		w := New(c, 3, 3).Randomize(r, 1)
		bias := New(c).Randomize(r, 1).Data
		spec := Conv2DSpec{Stride: stride, Pad: 1}
		want := depthwiseReference(in, w, bias, spec)
		if want.Shape.NumElems()*9 < parallelThresholdMACs {
			t.Fatal("test layer too small to hit the parallel path")
		}
		pooled := dirty(want.Shape...)
		DepthwiseConv2DFusedInto(pooled, in, w, bias, spec, Epilogue{})
		assertBitEqual(t, pooled, want, fmt.Sprintf("stride %d pooled", stride))
		serial := dirty(want.Shape...)
		depthwiseRows(serial, in, w, bias, spec.check(), 0, c*want.Shape[1])
		assertBitEqual(t, serial, want, fmt.Sprintf("stride %d serial", stride))
	}
}

// blockedDot is one output element of the FP32 GEMM, accumulated in the
// order the package documents and no other code here shares: K in blocks
// of gemmKC, each block in quads of gemmMR with the short last quad
// padded with +0.0 on both sides, acc += a0*w0 + a1*w1 + a2*w2 + a3*w3.
// x is contiguous, y is read at stride ys.
func blockedDot(x, y []float32, ys, k int) float32 {
	var acc float32
	for kc := 0; kc < k; kc += gemmKC {
		kb := min(k-kc, gemmKC)
		for g := 0; g < kb; g += gemmMR {
			var a, w [gemmMR]float32
			for r := 0; r < gemmMR && g+r < kb; r++ {
				a[r], w[r] = x[kc+g+r], y[(kc+g+r)*ys]
			}
			acc += a[0]*w[0] + a[1]*w[1] + a[2]*w[2] + a[3]*w[3]
		}
	}
	return acc
}

// oneRowGemm is the order-of-operations reference for the GEMM: every
// output element on its own through blockedDot, no panels, no row pairs.
func oneRowGemm(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			dst[i*n+j] = blockedDot(a[i*k:], b[j:], n, k)
		}
	}
}

// refAct is one element of an epilogue activation with the clamps written
// as compares and branches.
func refAct(v float32, act Act, alpha float32) float32 {
	switch act {
	case ActReLU, ActReLU6:
		return branchyClamp(v, act == ActReLU6)
	case ActLeakyReLU:
		if v < 0 {
			return alpha * v
		}
	case ActSigmoid:
		return float32(1 / (1 + math.Exp(-float64(v))))
	case ActTanh:
		return float32(math.Tanh(float64(v)))
	}
	return v
}

// refConvBlocked is the reference for the FP32 GEMM convolution on packed
// panels, and shares no code with it: per output pixel it gathers the
// window's taps in (ic, ky, kx) order with +0.0 for padding, and per
// output channel takes blockedDot of the taps and the filter, then the
// bias, the affine, and a branchy activation.
func refConvBlocked(in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue) *Tensor {
	spec = spec.check()
	cin, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	cout, kh, kw := w.Shape[0], w.Shape[2], w.Shape[3]
	hout, wout := spec.OutDims(h, wd, kh, kw)
	k := cin * kh * kw
	out := New(cout, hout, wout)
	taps := make([]float32, k)
	for oy := 0; oy < hout; oy++ {
		for ox := 0; ox < wout; ox++ {
			r := 0
			for ic := 0; ic < cin; ic++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						iy, ix := oy*spec.Stride+ky-spec.PadH, ox*spec.Stride+kx-spec.PadW
						taps[r] = 0
						if iy >= 0 && iy < h && ix >= 0 && ix < wd {
							taps[r] = in.Data[(ic*h+iy)*wd+ix]
						}
						r++
					}
				}
			}
			for oc := 0; oc < cout; oc++ {
				v := blockedDot(taps, w.Data[oc*k:], 1, k)
				if bias != nil {
					v += bias[oc]
				}
				if len(epi.Scale) > 0 {
					v = v*epi.Scale[oc] + epi.Shift[oc]
				}
				out.Data[(oc*hout+oy)*wout+ox] = refAct(v, epi.Act, epi.Alpha)
			}
		}
	}
	return out
}

// checkGemmKernels asserts the tile loop over all rows, and run as two row
// ranges split at an odd row (so the pairs fall differently), equals
// oneRowGemm bit for bit, and that the first range, one row paired with
// the microkernel's sink, writes no other row.
func checkGemmKernels(t *testing.T, a, b []float32, m, k, n int) {
	t.Helper()
	want := make([]float32, m*n)
	oneRowGemm(want, a, b, m, k, n)

	pw := packB(gemmFP32, b, k, n)
	packed := dirty(m, n).Data
	gemmFP32.rowRange(packed, a, pw, 0, m)
	if !bitsEqual(packed, want) {
		t.Errorf("m=%d k=%d n=%d: the tile loop differs from the one-row reference", m, k, n)
	}
	split := dirty(m, n).Data
	gemmFP32.rowRange(split, a, pw, 0, min(1, m))
	if !bitsEqual(split[n:], dirty(m, n).Data[n:]) {
		t.Errorf("m=%d k=%d n=%d: a one-row range wrote another row", m, k, n)
	}
	gemmFP32.rowRange(split, a, pw, min(1, m), m)
	if !bitsEqual(split, want) {
		t.Errorf("m=%d k=%d n=%d: row-range split changes the result", m, k, n)
	}
}

func TestGemmMicrokernelMatchesOneRow(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for _, c := range []struct{ m, k, n int }{
		{1, 1, 1}, {1, 16, 96}, {2, 5, 3}, {3, 7, 17}, {7, gemmKC + 2, 33},
		{8, 2*gemmKC + 3, 9}, {5, 30, gemmNC + 3}, {9, gemmKC - 1, 2*gemmNC + 1},
		{64, 16, 96},
	} {
		a := New(c.m, c.k).Randomize(r, 1)
		b := New(c.k, c.n).Randomize(r, 1)
		checkGemmKernels(t, a.Data, b.Data, c.m, c.k, c.n)
	}
}

// TestGemmMicrokernelNegativeZero drives −0.0 partial sums through the
// zero-padded K tail: whole rows of A are −0.0 or negative against zero
// and positive B columns, K is not a multiple of the interleave, and the
// signs of the resulting zeros must match the one-row kernel's.
func TestGemmMicrokernelNegativeZero(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	const m, k, n = 5, 6, 7
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	for i := range a {
		switch i / k {
		case 0, 3:
			a[i] = negZero
		case 1:
			a[i] = -1
		default:
			a[i] = float32(i%3) - 1
		}
	}
	for i := range b {
		switch i % n {
		case 0:
			b[i] = 0
		case 1:
			b[i] = negZero
		default:
			b[i] = float32(i%5) - 2
		}
	}
	checkGemmKernels(t, a, b, m, k, n)
}

// transposedIm2Col returns the im2row matrix [hout*wout, cin*kh*kw], one
// tap at a time — a lowering independent of im2rowPixels.
func transposedIm2Col(in *Tensor, kh, kw int, spec Conv2DSpec) []float32 {
	cin, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	hout, wout := spec.OutDims(h, wd, kh, kw)
	padH, padW := spec.padHW()
	rdim := cin * kh * kw
	out := make([]float32, hout*wout*rdim)
	for p := 0; p < hout*wout; p++ {
		for r := 0; r < rdim; r++ {
			iy := p/wout*spec.Stride + r/kw%kh - padH
			ix := p%wout*spec.Stride + r%kw - padW
			if iy >= 0 && iy < h && ix >= 0 && ix < wd {
				out[p*rdim+r] = in.Data[(r/(kh*kw)*h+iy)*wd+ix]
			}
		}
	}
	return out
}

// TestPointwiseLoweringMatchesIm2Col checks im2rowPixels' 1x1 lowering
// (the transposed kernel's, which a pointwise conv reaches only when
// called directly) on a non-square plane against the transposed im2col
// matrix, written as two shards whose boundary falls at the edges,
// inside the first band, and inside a later one, for the unit-stride,
// strided and padded 1x1 specs.
func TestPointwiseLoweringMatchesIm2Col(t *testing.T) {
	const cin, h, wd = 7, 5, 13
	in := New(cin, h, wd).Randomize(rand.New(rand.NewSource(83)), 1)
	for _, spec := range []Conv2DSpec{{Stride: 1}, {Stride: 2}, {Stride: 1, Pad: 1}} {
		spec = spec.check()
		hout, wout := spec.OutDims(h, wd, 1, 1)
		npix := hout * wout
		want := transposedIm2Col(in, 1, 1, spec)
		for _, cut := range []int{0, 1, convBandPixels - 1, convBandPixels + 8, npix} {
			cut = min(cut, npix)
			got := dirty(npix, cin).Data
			im2rowPixels(got, in.Data, cin, h, wd, 1, 1, spec, wout, 0, cut)
			im2rowPixels(got[cut*cin:], in.Data, cin, h, wd, 1, 1, spec, wout, cut, npix)
			if !bitsEqual(got, want) {
				t.Errorf("spec %+v cut at %d: lowering differs from transposed im2col", spec, cut)
			}
		}
	}
}

// checkBandedConv runs the convolution on panels packed ahead of time (pw)
// and requires it to equal refConvBlocked bit for bit.
func checkBandedConv(t *testing.T, name string, in, w *Tensor, pw *PackedWeights, bias []float32, spec Conv2DSpec, epi Epilogue) {
	t.Helper()
	want := refConvBlocked(in, w, bias, spec, epi)
	got := dirty(want.Shape...)
	Conv2DPrepackedInto(got, in, pw, bias, spec, epi)
	if !bitsEqual(got.Data, want.Data) {
		t.Errorf("%s: banded prepacked conv differs from the loop-nest reference", name)
	}
}

// TestConv2DPrepackedBandSweep crosses kernel 1/3/5/7 with stride 1-3,
// per-axis padding 0-2 (symmetric specs where the two agree, Asym ones
// otherwise), bias nil or not, an absorbed affine or none and every
// epilogue activation, on planes that give odd pixel counts, a single
// output pixel, and H or W smaller than the kernel.
func TestConv2DPrepackedBandSweep(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	const cin, cout = 3, 5
	acts := []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh}
	_, _, _, _, _, affine := bnEpilogue(cout, 3)
	cases, single, clipped := 0, 0, 0
	for _, k := range []int{1, 3, 5, 7} {
		planes := [][2]int{{4, 6}, {7, 5}, {2, 9}, {k, k}}
		w := randTensor(r, cout, cin, k, k)
		pw := PackConvWeights(w)
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
						if hout, wout := spec.OutDims(h, wd, k, k); hout*wout == 1 {
							single++
						}
						if h < k || wd < k {
							clipped++
						}
						in := randTensor(r, cin, h, wd)
						for _, bias := range [][]float32{nil, randTensor(r, cout).Data} {
							for _, epi := range []Epilogue{{}, affine} {
								for _, act := range acts {
									epi.Act, epi.Alpha = act, 0.1
									name := fmt.Sprintf("k%d s%d pad%dx%d in%dx%d bias=%v affine=%v act=%d",
										k, stride, padH, padW, h, wd, bias != nil, len(epi.Scale) > 0, act)
									checkBandedConv(t, name, in, w, pw, bias, spec, epi)
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

// TestConv2DPrepackedBandEdges puts band and chunk boundaries where they
// can go wrong: pixel counts one under, at and one over a band; a 7x7
// plane with K = 960, whose eight chunks are each smaller than a band; a
// pointwise layer and a padded 3x3 whose chunk edges fall inside a
// band. Each must equal the loop-nest reference pooled, and the
// pooled bits must be the ones a single core produces.
func TestConv2DPrepackedBandEdges(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	_, _, _, _, _, relu6 := bnEpilogue(160, 5)
	relu6.Act = ActReLU6
	for _, c := range []struct {
		convCase
		sharded bool
	}{
		{convCase{"band-1", 5, 7, 9, 6, 1, 1, Conv2DSpec{Stride: 1}}, false},
		{convCase{"band", 5, 8, 8, 6, 1, 1, Conv2DSpec{Stride: 1}}, false},
		{convCase{"band+1", 5, 5, 13, 6, 1, 1, Conv2DSpec{Stride: 1}}, false},
		{convCase{"band+1-3x3", 4, 5, 13, 6, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}}, false},
		{convCase{"7x7-K960", 960, 7, 7, 160, 1, 1, Conv2DSpec{Stride: 1}}, true},
		{convCase{"1x1-odd-chunks", 64, 37, 41, 48, 1, 1, Conv2DSpec{Stride: 1}}, true},
		{convCase{"3x3-odd-chunks", 8, 45, 45, 32, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}}, true},
	} {
		spec := c.spec.check()
		hout, wout := spec.OutDims(c.h, c.w, c.kh, c.kw)
		ncols, k := hout*wout, c.cin*c.kh*c.kw
		chunk := 2 * max(((ncols+1)/2+7)/8, grainForMACs(2*k*c.cout)) // parallelFor's cut at GOMAXPROCS 2, in pixels
		if c.sharded && (ncols*k*c.cout < parallelThresholdMACs || chunk%convBandPixels == 0) {
			t.Fatalf("%s: %d pixels in chunks of %d do not exercise an unaligned sharded cut", c.name, ncols, chunk)
		}
		in := randTensor(r, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		pw := PackConvWeights(w)
		bias := randTensor(r, c.cout).Data
		epi := Epilogue{Scale: relu6.Scale[:c.cout], Shift: relu6.Shift[:c.cout], Act: ActReLU6}
		checkBandedConv(t, c.name, in, w, pw, bias, spec, epi)

		pooled := dirty(c.cout, hout, wout)
		Conv2DPrepackedInto(pooled, in, pw, bias, spec, epi)
		old := runtime.GOMAXPROCS(1)
		serial := dirty(pooled.Shape...)
		Conv2DPrepackedInto(serial, in, pw, bias, spec, epi)
		runtime.GOMAXPROCS(old)
		assertBitEqual(t, serial, pooled, c.name+": GOMAXPROCS 1 vs pooled")
	}
}

// poisonBandScratch leaves each datatype's pool a scratch whose buffers
// are larger than any test band needs and full of values no convolution
// produces, for the next band pass on this goroutine to be handed.
func poisonBandScratch(n int) {
	f := gemmFP32.scratch.Get().(*bandScratch[float32, float32])
	f.rows, f.acc = growSlice(f.rows, n), growSlice(f.acc, n)
	for i := range f.rows {
		f.rows[i], f.acc[i] = float32(math.NaN()), float32(math.NaN())
	}
	gemmFP32.scratch.Put(f)
	q := gemmInt8.scratch.Get().(*bandScratch[int8, int32])
	q.rows, q.acc = growSlice(q.rows, n), growSlice(q.acc, n)
	for i := range q.rows {
		q.rows[i], q.acc[i] = -128, math.MinInt32
	}
	gemmInt8.scratch.Put(q)
}

// TestBandPassEdgesBothDatatypes drives one table of band-geometry edges
// through both instances of the band pass against their untouched
// loop-nest references: planes of one and two pixels, one under, at and
// one over a band and two bands, an odd plane under a padded 3x3, output
// channels off the microkernels' four-column pass, stride 2 with padding,
// and K = 130 (two FP32 K-blocks) followed by K = 27 — every case on
// scratch the case before left poisoned.
func TestBandPassEdgesBothDatatypes(t *testing.T) {
	r := rand.New(rand.NewSource(127))
	_, _, _, _, _, affine := bnEpilogue(9, 4)
	for _, c := range []convCase{
		{"1px", 3, 1, 1, 5, 1, 1, Conv2DSpec{Stride: 1}},
		{"2px", 3, 1, 2, 5, 1, 1, Conv2DSpec{Stride: 1}},
		{"63px", 4, 7, 9, 6, 1, 1, Conv2DSpec{Stride: 1}},
		{"64px", 4, 8, 8, 6, 1, 1, Conv2DSpec{Stride: 1}},
		{"65px-3x3-cout7", 4, 5, 13, 7, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
		{"127px", 3, 1, 127, 5, 1, 1, Conv2DSpec{Stride: 1}},
		{"129px", 3, 3, 43, 6, 1, 1, Conv2DSpec{Stride: 1}},
		{"odd-plane-3x3", 5, 9, 11, 9, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
		{"stride2-pad", 6, 11, 13, 9, 3, 3, Conv2DSpec{Stride: 2, Pad: 1}},
		{"K130", 130, 6, 6, 7, 1, 1, Conv2DSpec{Stride: 1}},
		{"K27-after-K130", 3, 6, 6, 5, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
	} {
		in := randTensor(r, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		bias := randTensor(r, c.cout).Data
		epi := Epilogue{Scale: affine.Scale[:c.cout], Shift: affine.Shift[:c.cout], Act: ActReLU6}
		poisonBandScratch(1 << 16)
		checkBandedConv(t, c.name, in, w, PackConvWeights(w), bias, c.spec, epi)
		qw := QuantizePerChannel(w)
		poisonBandScratch(1 << 16)
		checkBandedQConv(t, c.name, in, qw, PackQConvWeights(qw), bias, c.spec, ActReLU6)
	}
}

// branchyClamp is the ReLU/ReLU6 loop body as it stood before clamp: two
// float compares. It is kept here as the reference for every bit pattern.
func branchyClamp(v float32, relu6 bool) float32 {
	if v < 0 {
		v = 0
	} else if relu6 && v > 6 {
		v = 6
	}
	return v
}

// TestClampMatchesBranchyLoop holds clamp to the compare-and-branch form
// for both signs of every exponent with an empty, a one-bit, a half and
// a full mantissa — which takes in ±0, ±Inf, quiet and signalling NaNs
// of both signs and the denormals — and for 6.0 and its neighbours, then
// checks the three kernels built on it against the same reference and
// that the activations it does not serve are untouched.
func TestClampMatchesBranchyLoop(t *testing.T) {
	var vals []float32
	for sign := uint32(0); sign < 2; sign++ {
		for exp := uint32(0); exp < 256; exp++ {
			for _, mant := range []uint32{0, 1, 0x400000, 0x7fffff} {
				vals = append(vals, math.Float32frombits(sign<<31|exp<<23|mant))
			}
		}
	}
	for _, six := range []uint32{sixBits - 1, sixBits, sixBits + 1} {
		vals = append(vals, math.Float32frombits(six), math.Float32frombits(six|1<<31))
	}
	for _, act := range []Act{ActReLU, ActReLU6} {
		want := make([]float32, len(vals))
		for i, v := range vals {
			want[i] = branchyClamp(v, act == ActReLU6)
			if got := clamp(v, clampHi(act)); math.Float32bits(got) != math.Float32bits(want[i]) {
				t.Fatalf("act %d: clamp(%#08x) = %#08x, branchy loop gives %#08x",
					act, math.Float32bits(v), math.Float32bits(got), math.Float32bits(want[i]))
			}
		}
		inPlace := append([]float32(nil), vals...)
		applyActInPlace(inPlace, act, 0)
		span := append([]float32(nil), vals...)
		applyEpilogueSpan(span, 0, Epilogue{Scale: []float32{1}, Shift: []float32{0}, Act: act})
		requant := make([]float32, 3)
		requantizeStrided(requant, []int32{-7, 2, 900}, 1, 0.5, 0.25, act, 0)
		strided := make([]float32, 3)
		requantizeStrided(strided, []int32{-7, 0, 2, 0, 900}, 2, 0.5, 0.25, act, 0)
		for i, v := range vals {
			if math.Float32bits(inPlace[i]) != math.Float32bits(want[i]) {
				t.Fatalf("act %d: applyActInPlace(%#08x) differs from the branchy loop", act, math.Float32bits(v))
			}
			// The affine's v*1 + 0 turns -0.0 into +0.0 and quiets a NaN before the clamp sees it.
			if w := branchyClamp(v*1+0, act == ActReLU6); math.Float32bits(span[i]) != math.Float32bits(w) {
				t.Fatalf("act %d: applyEpilogueSpan(%#08x) differs from the branchy loop", act, math.Float32bits(v))
			}
		}
		for i, acc := range []int32{-7, 2, 900} {
			w := branchyClamp(float32(acc)*0.5+0.25, act == ActReLU6)
			if requant[i] != w || strided[i] != w {
				t.Fatalf("act %d: requantize(%d) = %v / strided %v, branchy loop gives %v", act, acc, requant[i], strided[i], w)
			}
		}
	}
	for _, act := range []Act{ActNone, ActLeakyReLU, ActSigmoid, ActTanh} {
		got := []float32{-2, -0.5, 0, 0.5, 7}
		applyActInPlace(got, act, 0.1)
		want := map[Act][]float32{
			ActNone:      {-2, -0.5, 0, 0.5, 7},
			ActLeakyReLU: {0.1 * -2, 0.1 * -0.5, 0, 0.5, 7},
			ActSigmoid:   {float32(1 / (1 + math.Exp(2))), float32(1 / (1 + math.Exp(0.5))), 0.5, float32(1 / (1 + math.Exp(-0.5))), float32(1 / (1 + math.Exp(-7)))},
			ActTanh:      {float32(math.Tanh(-2)), float32(math.Tanh(-0.5)), 0, float32(math.Tanh(0.5)), float32(math.Tanh(7))},
		}[act]
		if !bitsEqual(got, want) {
			t.Errorf("act %d: %v, want %v", act, got, want)
		}
	}
}

// TestDepthwiseShardsBelowGEMMThreshold takes layers between the
// depthwise bar and the GEMM kernels' — MobileNet-v2's 14x14 and 7x7
// depthwise shapes, which ran on one core before — and requires the
// sharded run to enlist a helper and to equal one serial pass bit for bit.
func TestDepthwiseShardsBelowGEMMThreshold(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	for _, c := range []struct{ c, hw, stride int }{{384, 14, 1}, {576, 14, 2}, {960, 7, 1}} {
		in := New(c.c, c.hw, c.hw).Randomize(r, 1)
		w := New(c.c, 3, 3).Randomize(r, 1)
		bias := New(c.c).Randomize(r, 1).Data
		spec := Conv2DSpec{Stride: c.stride, Pad: 1}.check()
		_, _, _, _, _, epi := bnEpilogue(c.c, 2)
		epi.Act = ActReLU6
		hout, wout := spec.OutDims(c.hw, c.hw, 3, 3)
		if macs := c.c * hout * wout * 9; macs < depthwiseShardMACs || macs >= parallelThresholdMACs {
			t.Fatalf("%dx%dx%d s%d: %d MACs is not between the two thresholds", c.c, c.hw, c.hw, c.stride, macs)
		}
		serial := dirty(c.c, hout, wout)
		depthwiseRowsFused(serial, in, w, bias, spec, 0, c.c*hout, epi)
		// Enlisting is a non-blocking hand-off to a parked worker, and one
		// that has just finished a task may not have parked again yet.
		enlisted := false
		sharded := dirty(serial.Shape...)
		for try := 0; try < 100 && !enlisted; try++ {
			before := poolParallelRuns.Load()
			DepthwiseConv2DFusedInto(sharded, in, w, bias, spec, epi)
			enlisted = poolParallelRuns.Load() > before
			runtime.Gosched()
		}
		if !enlisted {
			t.Errorf("%dx%dx%d s%d: no helper enlisted", c.c, c.hw, c.hw, c.stride)
		}
		assertBitEqual(t, sharded, serial, fmt.Sprintf("%dx%dx%d s%d sharded vs serial", c.c, c.hw, c.hw, c.stride))
	}
}
