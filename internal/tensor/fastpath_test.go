package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// Bit-exact differential tests for the shape-specialised kernels: the
// 3x3 depthwise row kernel, the two-row GEMM microkernel, the staging
// of im2row rows, the banded pre-packed convolution and the
// branch-free clamp. Each is compared with a plain reference
// that performs the same float32 operations in the same order, so any
// difference at all is a bug.

// depthwiseReference computes the whole depthwise output one pixel at a
// time through depthwisePixel, never entering the 3x3 row kernel.
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

// TestDepthwise3x3MatchesPixelReference sweeps, on each path of the
// stride-1 interior (onEachPath), every combination of stride 1-3,
// per-axis padding 0-2 (symmetric specs where the two agree, Asym ones
// otherwise), planes from 1 to 9 on a side — including H or W below the
// kernel size, where no interior exists — and bias nil or not, through
// both the plain and the fused-epilogue entry points. At stride 1 and
// padding 0 or 1 on each axis it adds interior widths 1-18 (every residue
// of the eight-lane groups, alone, after one group and after a pair) on
// four rows, whose first and last windows have a padded row under
// padding 1, and a 112 x 112 plane.
func TestDepthwise3x3MatchesPixelReference(t *testing.T) {
	onEachPath(t, testDepthwise3x3MatchesPixelReference)
}

func testDepthwise3x3MatchesPixelReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	sizes := []int{1, 2, 3, 4, 5, 8, 9}
	const c = 3
	type layer struct{ stride, padH, padW, h, wd int }
	var layers []layer
	for stride := 1; stride <= 3; stride++ {
		for padH := 0; padH <= 2; padH++ {
			for padW := 0; padW <= 2; padW++ {
				for _, h := range sizes {
					for _, wd := range sizes {
						layers = append(layers, layer{stride, padH, padW, h, wd})
					}
				}
			}
		}
	}
	for padH := 0; padH <= 1; padH++ {
		for padW := 0; padW <= 1; padW++ {
			for interior := 1; interior <= 18; interior++ {
				layers = append(layers, layer{1, padH, padW, 4, interior + 2})
			}
			layers = append(layers, layer{1, padH, padW, 112, 112})
		}
	}
	cases := 0
	for _, l := range layers {
		if l.h+2*l.padH < 3 || l.wd+2*l.padW < 3 {
			continue
		}
		spec := Conv2DSpec{Stride: l.stride, PadH: l.padH, PadW: l.padW, Asym: true}
		if l.padH == l.padW {
			spec = Conv2DSpec{Stride: l.stride, Pad: l.padH}
		}
		in := dirty(c, l.h, l.wd).Randomize(r, 1)
		w := New(c, 3, 3).Randomize(r, 1)
		for _, bias := range [][]float32{nil, New(c).Randomize(r, 1).Data} {
			name := fmt.Sprintf("s%d pad%dx%d in%dx%d bias=%v", l.stride, l.padH, l.padW, l.h, l.wd, bias != nil)
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
	if cases < 470 {
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
		depthwiseRows(serial, in, w, bias, spec.check(), 0, c*want.Shape[1], Epilogue{})
		assertBitEqual(t, serial, want, fmt.Sprintf("stride %d serial", stride))
	}
}

// TestDepthwise3x3SaltedSpecials runs the depthwise kernel, on each path
// of the stride-1 interior, on inputs and weights salted with +-0, NaN
// and +-Inf, -0.0 and +Inf biases, and compares every output bit with the
// pixel reference (any NaN equals any NaN). The finite sweep above cannot
// tell a skipped padded tap from one multiplied by +0.0: here channel 0
// is all -0.0 under a -0.0 bias, so an added +0.0 turns its -0.0 outputs
// into +0.0, and channel 1's weights are +Inf, so a +0.0 input in the
// padding turns them into NaN. The specs cover Asym pads, both strides,
// right edge columns that are and are not clipped, and two layers the
// 3x3 row kernel must leave to depthwisePixel; at stride 1 every interior
// width from 1 to 18 and a 112 x 112 plane.
func TestDepthwise3x3SaltedSpecials(t *testing.T) { onEachPath(t, testDepthwise3x3SaltedSpecials) }

func testDepthwise3x3SaltedSpecials(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	salt := func(x []float32) {
		for i := range x {
			if r.Intn(6) == 0 {
				x[i] = specials[r.Intn(len(specials))]
			}
		}
	}
	const c = 5
	clipped := map[bool]bool{}
	for _, tc := range []struct {
		spec Conv2DSpec
		fast bool
	}{
		{Conv2DSpec{Stride: 1, Pad: 1}, true},
		{Conv2DSpec{Stride: 2, Pad: 1}, true},
		{Conv2DSpec{Stride: 1, Asym: true, PadH: 1, PadW: 0}, true},
		{Conv2DSpec{Stride: 1, Asym: true, PadH: 0, PadW: 1}, true},
		{Conv2DSpec{Stride: 2, Asym: true, PadH: 1, PadW: 0}, true},
		{Conv2DSpec{Stride: 2, Asym: true, PadH: 0, PadW: 1}, true},
		{Conv2DSpec{Stride: 3, Pad: 1}, false},
		{Conv2DSpec{Stride: 1, Pad: 2}, false},
	} {
		spec := tc.spec.check()
		widths := []int{7, 8, 13}
		if tc.fast && spec.Stride == 1 {
			widths = nil
			for wd := 3; wd <= 20; wd++ { // interior widths 1-18
				widths = append(widths, wd)
			}
		}
		var planes [][2]int
		for _, h := range []int{3, 6, 7} {
			for _, wd := range widths {
				planes = append(planes, [2]int{h, wd})
			}
		}
		if tc.fast && spec.Stride == 1 {
			planes = append(planes, [2]int{112, 112})
		}
		for _, hw := range planes {
			h, wd := hw[0], hw[1]
			if depthwise3x3Fits(h, wd, 3, 3, spec.Stride, spec.PadH, spec.PadW) != tc.fast {
				t.Fatalf("%+v: depthwise3x3Fits = %v", spec, !tc.fast)
			}
			if _, wout := spec.OutDims(h, wd, 3, 3); tc.fast && spec.Stride == 2 {
				clipped[(wout-1)*spec.Stride-spec.PadW+3 > wd] = true
			}
			in := New(c, h, wd).Randomize(r, 1)
			w := New(c, 3, 3).Randomize(r, 1)
			for i := 0; i < h*wd; i++ {
				in.Data[i] = negZero
			}
			for i := 0; i < 9; i++ {
				w.Data[i] = float32(math.Abs(float64(w.Data[i])))
				w.Data[9+i] = inf
			}
			salt(in.Data[2*h*wd:])
			salt(w.Data[18:])
			bias := []float32{negZero, 0.5, negZero, inf, -0.25}
			name := fmt.Sprintf("%+v in%dx%d", spec, h, wd)
			want := depthwiseReference(in, w, bias, spec)
			got := dirty(want.Shape...)
			DepthwiseConv2DFusedInto(got, in, w, bias, spec, Epilogue{})
			if !bitsOrNaN(got.Data, want.Data) {
				t.Fatalf("%s: outputs differ from the pixel reference\ngot  %v\nwant %v", name, got.Data, want.Data)
			}
			_, _, _, _, _, epi := bnEpilogue(c, h+wd)
			epi.Act = ActReLU6
			epi.ApplyInto(want)
			DepthwiseConv2DFusedInto(got, in, w, bias, spec, epi)
			if !bitsOrNaN(got.Data, want.Data) {
				t.Fatalf("%s fused: outputs differ from the pixel reference", name)
			}
		}
	}
	if !clipped[true] || !clipped[false] {
		t.Fatalf("stride-2 widths cover right edges clipped %v, unclipped %v; want both", clipped[true], clipped[false])
	}
}

// TestDepthwiseRejectsRanks: an input that is not [C, H, W] and weights
// that are not [C, KH, KW] panic with the ranks named, rather than a
// [C, 1, 3, 3] weight being read as a 1x3 kernel.
func TestDepthwiseRejectsRanks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		in, w *Tensor
	}{
		{"rank-4 input", New(1, 2, 5, 5), New(2, 3, 3)},
		{"rank-4 weights", New(2, 5, 5), New(2, 1, 3, 3)},
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "rank-3") {
					t.Errorf("%s: panic %q, want one naming the rank-3 shapes", tc.name, msg)
				}
			}()
			DepthwiseConv2DFusedInto(New(2, 5, 5), tc.in, tc.w, nil, Conv2DSpec{Pad: 1}, Epilogue{})
		}()
	}
}

// blockedDot is one output element of the FP32 GEMM, accumulated in the
// order the package documents and no other code here shares: K in blocks
// of gemmKC, each block in quads of gemmMR with the short last quad
// padded with +0.0 on both sides, acc += a0*w0 + a1*w1 + a2*w2 + a3*w3,
// each product rounded on its own as the kernel's are, so no architecture
// fuses one into an add. x is contiguous, y is read at stride ys.
func blockedDot(x, y []float32, ys, k int) float32 {
	var acc float32
	for kc := 0; kc < k; kc += gemmKC {
		kb := min(k-kc, gemmKC)
		for g := 0; g < kb; g += gemmMR {
			var a, w [gemmMR]float32
			for r := 0; r < gemmMR && g+r < kb; r++ {
				a[r], w[r] = x[kc+g+r], y[(kc+g+r)*ys]
			}
			acc += float32(a[0]*w[0]) + float32(a[1]*w[1]) + float32(a[2]*w[2]) + float32(a[3]*w[3])
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
					v = float32(v*epi.Scale[oc]) + epi.Shift[oc]
				}
				out.Data[(oc*hout+oy)*wout+ox] = refAct(v, epi.Act, epi.Alpha)
			}
		}
	}
	return out
}

// checkGemmKernels asserts the channel-major kernel over the whole
// product equals oneRowGemm bit for bit, and so does it run as two ranges
// of each unit it cuts: columns split at an odd column, and row pairs
// split after the first pair — a first range that must write no other
// row, and whose lone row, when m is 1, pairs with the sink.
func checkGemmKernels(t *testing.T, a, b []float32, m, k, n int) {
	t.Helper()
	want := make([]float32, m*n)
	oneRowGemm(want, a, b, m, k, n)

	whole := dirty(m, n).Data
	matMulJob(whole, a, b, m, k, n, false).shard(0, n)
	if !bitsEqual(whole, want) {
		t.Errorf("m=%d k=%d n=%d: the channel-major kernel differs from the one-row reference", m, k, n)
	}
	cols := dirty(m, n).Data
	j := matMulJob(cols, a, b, m, k, n, false)
	j.shard(0, min(1, n))
	j.shard(min(1, n), n)
	if !bitsEqual(cols, want) {
		t.Errorf("m=%d k=%d n=%d: a column split changes the result", m, k, n)
	}
	rows := dirty(m, n).Data
	j = matMulJob(rows, a, b, m, k, n, true)
	j.shard(0, 1)
	if !bitsEqual(rows[min(2, m)*n:], dirty(m, n).Data[min(2, m)*n:]) {
		t.Errorf("m=%d k=%d n=%d: the first row pair wrote another row", m, k, n)
	}
	j.shard(1, (m+1)/2)
	if !bitsEqual(rows, want) {
		t.Errorf("m=%d k=%d n=%d: a row-pair split changes the result", m, k, n)
	}
}

func TestGemmMicrokernelMatchesOneRow(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for _, c := range []struct{ m, k, n int }{
		{1, 1, 1}, {1, 16, 96}, {2, 5, 3}, {3, 7, 17}, {7, gemmKC + 2, 33},
		{8, 2*gemmKC + 3, 9}, {5, 30, gemmBand + 3}, {9, gemmKC - 1, 2*gemmBand + 1},
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
// tap at a time — a lowering independent of the band pass's staging.
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

// stagedIm2Row returns the transposed im2col matrix [npix, K] of an FP32
// job as its bands stage it, a K-block at a time (stage), into a
// tile poisoned with NaN, which must also come back with +0.0 in the rows
// after a block up to the next K-quad.
func stagedIm2Row(t *testing.T, j *convJob) []float32 {
	k, npix := j.k, j.npix
	out := make([]float32, npix*k)
	tile := make([]float32, gemmKC*gemmBand)
	for p0 := 0; p0 < npix; p0 += gemmBand {
		p1 := min(p0+gemmBand, npix)
		nb := p1 - p0
		for kc := 0; kc < k; kc += gemmKC {
			kb := min(k-kc, gemmKC)
			for i := range tile {
				tile[i] = float32(math.NaN())
			}
			stage(j, tile, j.in, kc, kb, p0, p1)
			for r := range kb {
				for p := range nb {
					out[(p0+p)*k+kc+r] = tile[r*nb+p]
				}
			}
			for _, v := range tile[kb*nb : (kb+gemmMR-1)&^(gemmMR-1)*nb] {
				if math.Float32bits(v) != 0 {
					t.Fatalf("K-block [%d, %d) of pixels [%d, %d): a row past the block holds %v, want +0", kc, kc+kb, p0, p1, v)
				}
			}
		}
	}
	return out
}

// stagingJob is the FP32 job of a convolution of in by kh x kw weights,
// as far as staging reads it.
func stagingJob(in *Tensor, kh, kw int, spec Conv2DSpec) *convJob {
	spec = spec.check()
	hout, wout := spec.OutDims(in.Shape[1], in.Shape[2], kh, kw)
	return &convJob{in: in.Data, spec: spec, k: in.Shape[0] * kh * kw, npix: hout * wout, staged: true,
		geo: convGeom{cin: in.Shape[0], h: in.Shape[1], wd: in.Shape[2], kh: kh, kw: kw, hout: hout, wout: wout}}
}

// TestPointwiseLoweringMatchesIm2Col checks the FP32 staging of a 1x1
// window (which a unit-stride unpadded conv reaches only when called
// directly) on a non-square plane against the transposed im2col matrix,
// for the unit-stride, strided and padded 1x1 specs, with Cin over one
// K-block, so a block starts at channel 128 and the last leaves a K-tail;
// then the same for the 3x3 and 5x5 windows of planes over a band, so a
// band starts inside an output row.
func TestPointwiseLoweringMatchesIm2Col(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	in := New(gemmKC+7, 5, 13).Randomize(r, 1)
	for _, spec := range []Conv2DSpec{{Stride: 1}, {Stride: 2}, {Stride: 1, Pad: 1}} {
		if !bitsEqual(stagedIm2Row(t, stagingJob(in, 1, 1, spec)), transposedIm2Col(in, 1, 1, spec)) {
			t.Errorf("1x1 spec %+v: staged rows differ from transposed im2col", spec)
		}
	}
	big := New(11, 19, 23).Randomize(r, 1)
	for _, c := range []struct {
		k    int
		spec Conv2DSpec
	}{
		{3, Conv2DSpec{Stride: 1, Pad: 1}}, {3, Conv2DSpec{Stride: 2}}, {5, Conv2DSpec{Stride: 2, Pad: 2}},
		{5, Conv2DSpec{Stride: 1, PadH: 0, PadW: 2, Asym: true}}, {3, Conv2DSpec{Stride: 3, PadH: 2, PadW: 1, Asym: true}},
	} {
		if !bitsEqual(stagedIm2Row(t, stagingJob(big, c.k, c.k, c.spec)), transposedIm2Col(big, c.k, c.k, c.spec)) {
			t.Errorf("%dx%d spec %+v: staged rows differ from transposed im2col", c.k, c.k, c.spec)
		}
	}
}

// checkBandedConv runs the convolution into a NaN-poisoned dst and
// requires it to equal refConvBlocked bit for bit.
func checkBandedConv(t *testing.T, name string, in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue) {
	t.Helper()
	want := refConvBlocked(in, w, bias, spec, epi)
	got := dirty(want.Shape...)
	Conv2DInto(got, in, w, bias, spec, epi)
	if !bitsEqual(got.Data, want.Data) {
		t.Errorf("%s: banded conv differs from the loop-nest reference", name)
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
									checkBandedConv(t, name, in, w, bias, spec, epi)
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
// can go wrong: pixel counts one under, at and one over a band, in place
// and staged; a 7x7 plane with K = 960 and a padded 3x3 on 13x13, each
// cut by channel pairs; a pointwise layer and a padded 3x3 whose pixel
// chunks end inside a band. Each must equal the loop-nest reference bit
// for bit pooled, and the pooled bits must be the ones a single core
// produces. The data is unsalted, so no expected output is NaN and a
// shard that writes nothing or the wrong pixels leaves dst's NaN behind.
func TestConv2DPrepackedBandEdges(t *testing.T) { onEachPath(t, testConv2DPrepackedBandEdges) }

func testConv2DPrepackedBandEdges(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	_, _, _, _, _, relu6 := bnEpilogue(160, 5)
	relu6.Act = ActReLU6
	const chunks = 2 * chunksPerWorker // parallelFor's cut at GOMAXPROCS 2
	for _, c := range []struct {
		convCase
		sharded, byPairs bool
	}{
		{convCase{"band-1", 5, 15, 17, 6, 1, 1, Conv2DSpec{Stride: 1}}, false, true},
		{convCase{"band", 5, 16, 16, 6, 1, 1, Conv2DSpec{Stride: 1}}, false, true},
		{convCase{"band+1", 5, 1, 257, 6, 1, 1, Conv2DSpec{Stride: 1}}, false, true},
		{convCase{"band+1-3x3", 4, 1, 257, 7, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}}, false, true},
		{convCase{"7x7-K960", 960, 7, 7, 160, 1, 1, Conv2DSpec{Stride: 1}}, true, true},
		{convCase{"13x13-3x3-pairs", 64, 13, 13, 37, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}}, true, true},
		{convCase{"1x1-odd-chunks", 64, 53, 61, 48, 1, 1, Conv2DSpec{Stride: 1}}, true, false},
		{convCase{"3x3-odd-chunks", 8, 53, 61, 33, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}}, true, false},
	} {
		spec := c.spec.check()
		hout, wout := spec.OutDims(c.h, c.w, c.kh, c.kw)
		npix, k := hout*wout, c.cin*c.kh*c.kw
		if c.sharded && (npix*k*c.cout < parallelThresholdMACs || (npix < gemmBand*chunks) != c.byPairs) {
			t.Fatalf("%s: %d MACs on %d pixels do not shard by pairs=%v", c.name, npix*k*c.cout, npix, c.byPairs)
		}
		if chunk := max((npix+chunks-1)/chunks, grainForMACs(k*c.cout)); c.sharded && !c.byPairs && chunk%gemmBand == 0 {
			t.Fatalf("%s: chunks of %d pixels end on a band edge", c.name, chunk)
		}
		in := randTensor(r, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		bias := randTensor(r, c.cout).Data
		epi := Epilogue{Scale: relu6.Scale[:c.cout], Shift: relu6.Shift[:c.cout], Act: ActReLU6}
		want := refConvBlocked(in, w, bias, spec, epi)
		old := runtime.GOMAXPROCS(2)
		pooled := dirty(c.cout, hout, wout)
		Conv2DInto(pooled, in, w, bias, spec, epi)
		runtime.GOMAXPROCS(1)
		serial := dirty(pooled.Shape...)
		Conv2DInto(serial, in, w, bias, spec, epi)
		runtime.GOMAXPROCS(old)
		if !bitsEqual(pooled.Data, want.Data) {
			t.Errorf("%s: pooled conv differs from the loop-nest reference", c.name)
		}
		if !bitsEqual(serial.Data, pooled.Data) {
			t.Errorf("%s: GOMAXPROCS 1 differs from pooled", c.name)
		}
	}
}

// poisonBandScratch leaves the convolutions' pool a scratch full of
// values no convolution produces, for the next call on this goroutine to
// be handed: the FP32 tile and sink NaN, the int8 rows and pair rows
// -32768.
func poisonBandScratch() {
	f := convScratchPool.Get().(*convScratch)
	for i := range f.tile {
		f.tile[i] = float32(math.NaN())
	}
	for i := range f.sink {
		f.sink[i] = float32(math.NaN())
	}
	for i := range f.rows {
		f.rows[i], f.pairs[i] = math.MinInt16, math.MinInt16
	}
	convScratchPool.Put(f)
}

// TestBandPassEdgesBothDatatypes drives one table of band-geometry edges
// through both datatypes' convolutions against their untouched loop-nest
// references: planes of one and two pixels, one under, at and one over
// the int8 vector body's groups of sixteen, an odd plane under a padded
// 3x3, odd output channels (a last channel paired with itself), stride 2
// with padding, K = 130 in place and K = 150 staged (two K-blocks, the
// second with a K-tail) followed by K = 27 — every case on scratch left
// poisoned.
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
		{"K150-5x5", 6, 7, 8, 7, 5, 5, Conv2DSpec{Stride: 1, Pad: 2}},
		{"K27-after-K150", 3, 6, 6, 5, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
	} {
		in := randTensor(r, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		bias := randTensor(r, c.cout).Data
		epi := Epilogue{Scale: affine.Scale[:c.cout], Shift: affine.Shift[:c.cout], Act: ActReLU6}
		poisonBandScratch()
		checkBandedConv(t, c.name, in, w, bias, c.spec, epi)
		qw := QuantizePerChannel(w)
		poisonBandScratch()
		checkBandedQConv(t, c.name, in, qw, bias, c.spec, ActReLU6)
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
// checks the three kernels built on it against the same reference, on
// each path of the epilogue (onEachPath), and that the activations it
// does not serve are untouched.
func TestClampMatchesBranchyLoop(t *testing.T) { onEachPath(t, testClampMatchesBranchyLoop) }

func testClampMatchesBranchyLoop(t *testing.T) {
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
		applyEpilogueSpan(span, nil, 0, Epilogue{Scale: []float32{1}, Shift: []float32{0}, Act: act})
		requant := make([]float32, 3)
		copy(int32Rows(requant), []int32{-7, 2, 900})
		requantizeRow(requant, 0.5, 0.25, act, 0)
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
			if requant[i] != w {
				t.Fatalf("act %d: requantize(%d) = %v, branchy loop gives %v", act, acc, requant[i], w)
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

// TestEpilogueSpanSaltedMatchesReference holds applyEpilogueSpan, on each
// path, to a per-element reference — v + b, then float32(v*scale) +
// shift, then the branchy activation — on spans of every length from 1 to
// 17 (every residue of the eight-lane group, the masked tail alone, after
// one group and after two) starting at every offset of a group, with
// ±0, quiet and signalling NaNs of both signs, ±Inf, 6.0 and its
// neighbours among random values; no bias, a -0.0 and a 0.5 one; no
// affine and the affines 1/0, -1.5/0.25 and 1/-0.0; and every
// activation. Every bit must match, NaN payloads included, and the
// elements either side of the span must not move.
func TestEpilogueSpanSaltedMatchesReference(t *testing.T) {
	onEachPath(t, testEpilogueSpanSaltedMatchesReference)
}

func testEpilogueSpanSaltedMatchesReference(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	salts := append([]float32{math.Float32frombits(0x7f800001), math.Float32frombits(0xff800001),
		math.Float32frombits(0xffc00000), 6, math.Nextafter32(6, 7), math.Nextafter32(6, 5), -6}, specials...)
	affines := []struct{ scale, shift []float32 }{{nil, nil}, {[]float32{1}, []float32{0}},
		{[]float32{-1.5}, []float32{0.25}}, {[]float32{1}, []float32{negZero}}}
	biases := [][]float32{nil, {negZero}, {0.5}}
	const guard = 9
	sentinel := math.Float32frombits(0x7fa5a5a5)
	r := rand.New(rand.NewSource(163))
	cases := 0
	for n := 1; n <= 17; n++ {
		for off := range 8 {
			src := make([]float32, n)
			for i := range src {
				src[i] = r.Float32()*16 - 8
				if r.Intn(2) == 0 {
					src[i] = salts[r.Intn(len(salts))]
				}
			}
			buf := make([]float32, guard+off+n+guard)
			for _, a := range affines {
				for _, bias := range biases {
					for _, act := range []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid} {
						for i := range buf {
							buf[i] = sentinel
						}
						span := buf[guard+off : guard+off+n]
						copy(span, src)
						applyEpilogueSpan(span, bias, 0, Epilogue{Scale: a.scale, Shift: a.shift, Act: act, Alpha: 0.1})
						for i, v := range src {
							if bias != nil {
								v += bias[0]
							}
							if a.scale != nil {
								v = float32(v*a.scale[0]) + a.shift[0]
							}
							if want := refAct(v, act, 0.1); math.Float32bits(span[i]) != math.Float32bits(want) {
								t.Fatalf("n %d off %d affine %v bias %v act %d: element %d (%#08x) = %#08x, want %#08x", n, off, a,
									bias, act, i, math.Float32bits(src[i]), math.Float32bits(span[i]), math.Float32bits(want))
							}
						}
						for i, v := range buf {
							if (i < guard+off || i >= guard+off+n) && math.Float32bits(v) != math.Float32bits(sentinel) {
								t.Fatalf("n %d off %d: element %d outside the span written", n, off, i-guard-off)
							}
						}
						cases++
					}
				}
			}
		}
	}
	if cases != 17*8*4*3*5 {
		t.Fatalf("ran %d cases", cases)
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
		depthwiseRows(serial, in, w, bias, spec, 0, c.c*hout, epi)
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
