package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Bit-exact differential tests for the shape-specialised kernels: the
// 3x3 depthwise row kernel, the two-row GEMM microkernel, and the
// pointwise transpose lowering. Each is compared with a plain reference
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

// oneRowGemm is the blocked kernel as it stood before the two-row
// microkernel: one output row per pass over the panel. It is kept here,
// not in the package, as the order-of-operations reference.
func oneRowGemm(dst, a, b []float32, m, k, n int) {
	panel := make([]float32, gemmPanelElems())
	clear(dst[:m*n])
	var abuf [gemmKC]float32
	for jc := 0; jc < n; jc += gemmNC {
		jb := min(n-jc, gemmNC)
		for kc := 0; kc < k; kc += gemmKC {
			kb := min(k-kc, gemmKC)
			kb4 := (kb + gemmMR - 1) &^ (gemmMR - 1)
			packPanel(panel, b, n, kc, kb, kb4, jc, jb)
			for i := 0; i < m; i++ {
				copy(abuf[:kb], a[i*k+kc:i*k+kc+kb])
				for z := kb; z < kb4; z++ {
					abuf[z] = 0
				}
				orow := dst[i*n+jc : i*n+jc+jb]
				for g := 0; g < kb4; g += gemmMR {
					a0, a1, a2, a3 := abuf[g], abuf[g+1], abuf[g+2], abuf[g+3]
					p := panel[g*jb : g*jb+jb*gemmMR]
					for j := range orow {
						base := j * gemmMR
						orow[j] += a0*p[base] + a1*p[base+1] + a2*p[base+2] + a3*p[base+3]
					}
				}
			}
		}
	}
}

// checkGemmKernels asserts the per-call-packing kernel, the prepacked
// kernel, and the prepacked kernel run as two row ranges split at an odd
// row (so the pairs fall differently) all equal oneRowGemm bit for bit.
func checkGemmKernels(t *testing.T, a, b []float32, m, k, n int) {
	t.Helper()
	want := make([]float32, m*n)
	oneRowGemm(want, a, b, m, k, n)

	blocked := dirty(m, n).Data
	matmulBlockedRange(blocked, a, b, m, k, n, 0, m, nil)
	if !bitsEqual(blocked, want) {
		t.Errorf("m=%d k=%d n=%d: matmulBlockedRange differs from the one-row kernel", m, k, n)
	}
	pw := PackGemmB(b, k, n)
	packed := dirty(m, n).Data
	gemmPrepackedRange(packed, a, pw, 0, m)
	if !bitsEqual(packed, want) {
		t.Errorf("m=%d k=%d n=%d: gemmPrepackedRange differs from the one-row kernel", m, k, n)
	}
	split := dirty(m, n).Data
	gemmPrepackedRange(split, a, pw, 0, min(1, m))
	gemmPrepackedRange(split, a, pw, min(1, m), m)
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

// transposedIm2Col returns the im2row matrix [hout*wout, cin*kh*kw] as
// the transpose of Im2Col's output — a kernel independent of im2rowPixels.
func transposedIm2Col(in *Tensor, kh, kw int, spec Conv2DSpec) []float32 {
	cols := Im2Col(in, kh, kw, spec)
	rdim, npix := cols.Shape[0], cols.Shape[1]
	out := make([]float32, npix*rdim)
	for r := 0; r < rdim; r++ {
		for p := 0; p < npix; p++ {
			out[p*rdim+r] = cols.Data[r*npix+p]
		}
	}
	return out
}

// TestPointwiseLoweringMatchesIm2Col checks the 1x1 lowering on a
// non-square plane against the transposed im2col matrix, written as two
// shards whose boundary falls at the edges, inside the first tile, and
// inside a later one. The strided and padded 1x1 specs, which must keep
// the generic loop, are held to the same reference.
func TestPointwiseLoweringMatchesIm2Col(t *testing.T) {
	const cin, h, wd = 7, 5, 13
	in := New(cin, h, wd).Randomize(rand.New(rand.NewSource(83)), 1)
	for _, spec := range []Conv2DSpec{{Stride: 1}, {Stride: 2}, {Stride: 1, Pad: 1}} {
		spec = spec.check()
		hout, wout := spec.OutDims(h, wd, 1, 1)
		npix := hout * wout
		want := transposedIm2Col(in, 1, 1, spec)
		for _, cut := range []int{0, 1, transposeTile - 1, transposeTile + 8, npix} {
			cut = min(cut, npix)
			got := dirty(npix, cin).Data
			im2rowPixels(got, in, 1, 1, spec, hout, wout, 0, cut)
			im2rowPixels(got, in, 1, 1, spec, hout, wout, cut, npix)
			if !bitsEqual(got, want) {
				t.Errorf("spec %+v cut at %d: lowering differs from transposed im2col", spec, cut)
			}
		}
	}
}
