package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Bit-exact differential tests for the int8 fast paths: the channel-major
// int8 convolution, the sharded activation quantizer, the max-pool
// interior path, and the int8 microkernel, its vector body and its plain
// int32 Go loop (the tests that reach it run on both paths, onEachPath).
// Each is compared with a loop nest that shares no code with it, so any
// difference at all is a bug.

// checkBandedQConv runs the int8 conv of qw's codes, [Cout, Cin, KH, KW]
// as quantized, laid out by ConvCodes, twice into NaN-poisoned outputs,
// the second call on the scratch the first left behind, and requires both
// to equal the loop-nest reference refQConv, which reads qw as quantized,
// bit for bit.
func checkBandedQConv(t *testing.T, name string, in *Tensor, qw *QTensor, bias []float32, spec Conv2DSpec, act Act) {
	t.Helper()
	want := refQConv(in, qw, bias, spec, act, 0.1)
	codes := ConvCodes(qw)
	for _, call := range []string{"first", "second"} {
		got := dirty(want.Shape...)
		Conv2DQInto(got, in, codes, bias, spec, act, 0.1)
		if !bitsEqual(got.Data, want.Data) {
			t.Errorf("%s: %s int8 conv call differs from the loop-nest reference", name, call)
		}
	}
}

// TestConv2DQPrepackedBandSweep crosses kernel 1/3/5/7 with stride 1-3,
// per-axis padding 0-2 (symmetric specs where the two agree, Asym ones
// otherwise), bias nil or not, per-tensor and per-channel weight scales
// and every epilogue activation, on planes that give odd pixel counts,
// a single output pixel, and H or W smaller than the kernel, on both
// paths.
func TestConv2DQPrepackedBandSweep(t *testing.T) {
	onEachPath(t, testConv2DQPrepackedBandSweep)
}

func testConv2DQPrepackedBandSweep(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	const cin, cout = 3, 5
	acts := []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh}
	cases, single, clipped := 0, 0, 0
	for _, k := range []int{1, 3, 5, 7} {
		planes := [][2]int{{4, 6}, {7, 5}, {2, 9}, {k, k}}
		w := randTensor(r, cout, cin, k, k)
		quantized := []*QTensor{QuantizeSymmetric(w), QuantizePerChannel(w)}
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
									checkBandedQConv(t, name, in, qw, bias, spec, act)
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
// bands, none a multiple of the vector body's eight pixels: a 3x3 padded
// conv, a strided one, and a 1x1 (band edges inside a chunk), on both
// paths.
func TestConv2DQPrepackedShardedBands(t *testing.T) {
	onEachPath(t, testConv2DQPrepackedShardedBands)
}

func testConv2DQPrepackedShardedBands(t *testing.T) {
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
		bias := randTensor(r, c.cout).Data
		checkBandedQConv(t, c.name, randTensor(r, c.cin, c.h, c.w), qw, bias, spec, ActReLU)
	}
}

// quantizeDynamic runs the activation quantizer as the int8 kernels do:
// the scale of src's max-abs, then the codes, here of src as both
// channels of one pair row; dst takes the first channel's.
func quantizeDynamic(dst []int8, src []float32) float32 {
	scale := symmetricScale(maxAbs(src))
	codes := make([]int16, 2*len(src))
	quantizeRound(codes, append(append([]float32(nil), src...), src...), len(src), 1/scale)
	for i := range dst {
		dst[i] = int8(codes[2*i])
	}
	return scale
}

// quantizeDynamicSerial is the activation quantizer as a plain scalar
// loop, kept here as the reference; its product is rounded apart, as
// quantCode's is.
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
		r := float32(v * inv)
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

// saltSpecials are the values the float kernels' tests and fuzz targets
// salt their inputs with: both zeros, NaNs of both signs and several
// payloads, both infinities, ±MaxFloat32 and subnormals.
var saltSpecials = []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(0x7fc00000),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xffc00123), math.Float32frombits(0xff800001),
	float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32,
	math.Float32frombits(1), math.Float32frombits(0x807fffff)}

// quantSalt overwrites about salt/256 of src with the inputs a quantizer
// must reduce and round with care: saltSpecials, and the ties ±(k+½)/inv
// with the floats either side of them (exact ties where inv is a power of
// two).
func quantSalt(r *rand.Rand, src []float32, inv float32, salt int) {
	for i := range src {
		if r.Intn(256) >= salt {
			continue
		}
		if r.Intn(2) == 0 {
			src[i] = saltSpecials[r.Intn(len(saltSpecials))]
			continue
		}
		tie := (float32(r.Intn(128)) + 0.5) / inv
		if r.Intn(2) == 0 {
			tie = -tie
		}
		src[i] = [...]float32{tie, math.Nextafter32(tie, 0), math.Nextafter32(tie, 2*tie)}[r.Intn(3)]
	}
}

// TestQuantizeRoundMatchesQuantCode holds quantizeRound's pair rows to
// the branchy rounding element by element, and maxAbs's scale to the
// serial quantizer's, on the vector bodies and on the Go loops: 1, 2, 3
// and 17 channels (an odd last channel leaves its pair's odd slots
// unwritten) over planes of 1–17, 169, 729, 3025, 4105 and 8195
// positions; random inputs, and inputs salted by quantSalt; at inv 0.25,
// where the ties are exact, and at 127/6. Then one channel of long
// planes, 8 K to 136 K positions either side of the 8 K and 128 K marks
// (tails of 0, 1 and 7 mod 8), at the quantizer's own scale: random,
// with the maximum last, with NaNs, which must never win the max-abs,
// with infinities, and all zeros, whose scale is 1.
func TestQuantizeRoundMatchesQuantCode(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(127))
		planes := []int{169, 729, 3025, 4105, 8195}
		for p := 1; p <= 17; p++ {
			planes = append(planes, p)
		}
		for _, c := range []int{1, 2, 3, 17} {
			for _, plane := range planes {
				for _, inv := range []float32{0.25, 127.0 / 6} {
					src := make([]float32, c*plane)
					for i := range src {
						src[i] = float32(r.NormFloat64()*60) / inv
					}
					for _, salt := range []int{0, 40} {
						quantSalt(r, src, inv, salt)
						checkQuantizeRound(t, fmt.Sprintf("c=%d plane=%d inv=%g salt=%d", c, plane, inv, salt), src, plane, inv)
					}
				}
			}
		}
		for _, n := range []int{1 << 13, 1<<17 - 1, 1 << 17, 1<<17 + 1, 1<<17 + 1<<13 - 1, 1<<17 + 1<<13, 1<<17 + 1<<13 + 1, 5<<13 + 17} {
			src := make([]float32, n)
			for i := range src {
				src[i] = float32(r.NormFloat64())
			}
			check := func(what string) float32 {
				scale := quantizeDynamicSerial(make([]int8, n), src)
				checkQuantizeRound(t, fmt.Sprintf("plane=%d %s", n, what), src, n, 1/scale)
				return scale
			}
			check("random")
			src[n-1] = -40
			check("max last")
			src[n/3], src[n-2] = float32(math.NaN()), float32(math.NaN())
			check("NaN")
			src[n/2], src[0] = float32(math.Inf(-1)), float32(math.Inf(1))
			check("Inf")
			clear(src)
			if scale := check("zero"); scale != 1 {
				t.Errorf("plane=%d: all-zero scale %v, want 1", n, scale)
			}
		}
	})
}

// checkQuantizeRound holds maxAbs's scale of src, [C, plane], to the
// serial quantizer's, and quantizeRound's pair rows at inv to
// quantCodeBranchy's codes. Every code lands in a plane poisoned with
// -32768, a code the quantizer never emits, so every slot it must not
// write (an odd last channel's partner, the padding rows) is checked
// untouched.
func checkQuantizeRound(t *testing.T, name string, src []float32, plane int, inv float32) {
	t.Helper()
	if got, want := symmetricScale(maxAbs(src)), quantizeDynamicSerial(make([]int8, len(src)), src); math.Float32bits(got) != math.Float32bits(want) {
		t.Fatalf("%s: scale %g, the serial quantizer's %g", name, got, want)
	}
	c := len(src) / plane
	got, want := make([]int16, (c+gemmMR-1)&^(gemmMR-1)*plane), make([]int16, (c+gemmMR-1)&^(gemmMR-1)*plane)
	for i := range got {
		got[i], want[i] = math.MinInt16, math.MinInt16
	}
	for i, v := range src {
		ch, p := i/plane, i%plane
		want[(ch&^1)*plane+2*p+ch&1] = int16(quantCodeBranchy(v, inv))
	}
	quantizeRound(got, src, plane, inv)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: slot %d = %d, want %d", name, i, got[i], want[i])
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
// smaller than the window, against the per-window reference, on both
// paths. The widths 15-20 and 31-36 give a 3x3 stride-2 row 7, 8, 9, 15,
// 16 and 17 interior windows at pad 0 and at pad 1: no vector group, one,
// one and an overlapping one, and two and overlapping ones. Then 64
// planes of 81x83 at 3x3 stride 2, padded and not, and at 2x2: rows of 41
// and 40 windows, many groups and an overlapping last one.
func TestMaxPoolInteriorMatchesWindowReference(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(103))
		cases, vector := 0, 0
		for k := 2; k <= 3; k++ {
			for stride := 1; stride <= 3; stride++ {
				for pad := 0; pad <= 1; pad++ {
					for _, h := range []int{1, 2, 3, 4, 7, 10} {
						for _, w := range []int{1, 2, 3, 5, 8, 11, 15, 16, 17, 18, 19, 20, 31, 32, 33, 34, 35, 36} {
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
							if MaxPoolVector(h, w, spec) {
								vector++
							}
						}
					}
				}
			}
		}
		if cases < 900 || useAVX2 && vector < 40 {
			t.Fatalf("sweep ran only %d cases, %d of them on the vector body", cases, vector)
		}
		for _, spec := range []PoolSpec{{Kernel: 3, Stride: 2}, {Kernel: 3, Stride: 2, Pad: 1}, {Kernel: 2}} {
			in := poolInput(r, 64, 81, 83)
			want := maxPoolReference(in, spec.check())
			got := dirty(want.Shape...)
			MaxPool2DInto(got, in, spec)
			if !bitsEqual(got.Data, want.Data) {
				t.Errorf("%+v on 64x81x83: MaxPool2DInto differs from the per-window reference", spec)
			}
		}
	})
}

// TestMaxPoolSpecialWindows pins the interior select on single 3×3
// windows holding several of the values poolInput salts only one in seven
// taps with: between −0 and +0 the first tap wins, a NaN never wins, +Inf
// does, and a window of nothing but NaN and −Inf keeps the running max's
// starting value negInf (−MaxFloat32), as maxPoolWindow always has.
func TestMaxPoolSpecialWindows(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
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
			// four-window passes and their tail, and at stride 2 of the
			// vector body's groups of eight, the overlapping last one
			// included. The other windows overlap it and are checked against
			// maxPoolWindow.
			for _, stride := range []int{1, 2} {
				spec := PoolSpec{Kernel: 3, Stride: stride}
				for span := 1; span <= 17; span++ {
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
	})
}

// checkQGemmKernels asserts the int8 convolution as a GEMM (matrixJob)
// over all rows, sharded by rows across the pool, and run as two row
// ranges split at rows 1, 2, 4, 5, 8 and 17 (so the vector body's groups
// of sixteen and eight and its masked tail fall differently), equals the
// plain triple loop.
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

	j := matrixJob(a, packB(b, k, n), m, k, n)
	for _, split := range []int{1, 2, 4, 5, 8, 17} {
		if split >= m {
			break
		}
		for i := range got {
			got[i] = math.MinInt32
		}
		qRowRange(got, j, 0, split)
		qRowRange(got, j, split, m)
		check(fmt.Sprintf("row-range split at %d", split), got)
	}
}

// TestQGemmPanelRowsMatchesNaive covers the int8 microkernel's pixel
// counts (M) of every residue mod 16 (groups of sixteen, a group of eight,
// the masked tail, M = 1 as the dense layer runs it), odd N (a last
// channel paired with itself, its partner in the sink), K off the quad,
// more than one K-block, and a 64-row band; on both paths.
func TestQGemmPanelRowsMatchesNaive(t *testing.T) {
	onEachPath(t, testQGemmPanelRowsMatchesNaive)
}

func testQGemmPanelRowsMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	for _, c := range []struct{ m, k, n int }{
		{1, 1, 1}, {1, 9, 4}, {2, 8, 5}, {3, 7, 6}, {4, 13, 7}, {5, 16, 8},
		{1, 30, 11}, {7, gemmKC + 2, 9}, {6, 2*gemmKC + 3, 10},
		{5, 30, 515}, {9, gemmKC - 1, 1025}, {64, 144, 64},
		{8, gemmKC, 13}, {10, 3*gemmKC + 1, 14}, {11, 70, 3}, {2, 5, 2},
		{64, 4 * gemmKC, 1000}, {15, 27, 17}, {16, 75, 3}, {17, 147, 5}, {31, 33, 1},
		{13, gemmKC + 5, 518}, {14, 2 * gemmKC, 519}, {65, 33, 1026},
	} {
		checkQGemmKernels(t, "random", randQ(r, c.m*c.k), randQ(r, c.k*c.n), c.m, c.k, c.n)
	}
}

// TestQGemmLaneSumEdge pins every code at +-127 over a full gemmKC-deep
// K-block, the largest pair sum a VPMADDWD forms (2*127*127) in every
// lane: rows in every sign pattern of three, against columns of either
// sign and of both, for even and odd channel counts, on both paths.
func TestQGemmLaneSumEdge(t *testing.T) {
	onEachPath(t, testQGemmLaneSumEdge)
}

func testQGemmLaneSumEdge(t *testing.T) {
	const m, k = 3 * 8, gemmKC
	for _, n := range []int{7, 8} {
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
			checkQGemmKernels(t, fmt.Sprintf("pinned cols %v n=%d", colSign, n), a, b, m, k, n)
		}
	}
}

// TestQGemmRowRangeWritesOnlyItsRows runs the int8 convolution on pixel
// ranges inside and at either end of the plane, even and odd channel
// counts, with one K-block and with two: every output outside [rlo, rhi)
// keeps its sentinel, so neither the range's edges, the vector body's
// masked tail nor an odd channel's partner row ever reach them, on both
// paths.
func TestQGemmRowRangeWritesOnlyItsRows(t *testing.T) {
	onEachPath(t, testQGemmRowRangeWritesOnlyItsRows)
}

func testQGemmRowRangeWritesOnlyItsRows(t *testing.T) {
	const m, sentinel = 37, 0x7fc0dead
	r := rand.New(rand.NewSource(131))
	for _, n := range []int{9, 516} {
		for _, k := range []int{gemmKC - 6, gemmKC + 6} {
			a, b := randQ(r, m*k), randQ(r, k*n)
			want := make([]int32, m*n)
			qnaive(want, a, b, m, k, n)
			j := matrixJob(a, packB(b, k, n), m, k, n)
			for _, rr := range [][2]int{{2, 6}, {3, 8}, {0, 1}, {0, 5}, {8, 10}, {9, 10}, {4, 5}, {0, 17}, {1, 25}, {20, 37}, {36, 37}} {
				for i := range j.out {
					j.out[i] = math.Float32frombits(sentinel)
				}
				j.shard(rr[0], rr[1])
				for i, v := range j.out {
					c, p := i/m, i%m
					if p >= rr[0] && p < rr[1] {
						if int32(v) != want[p*n+c] {
							t.Fatalf("n=%d k=%d rows %v: channel %d pixel %d = %v, want %d", n, k, rr, c, p, v, want[p*n+c])
						}
					} else if math.Float32bits(v) != sentinel {
						t.Fatalf("n=%d k=%d rows %v: pixel %d outside the range was written: channel %d = %#x", n, k, rr, p, c, math.Float32bits(v))
					}
				}
			}
		}
	}
}

// TestQGemmSweepMatchesNaive holds the int8 convolution, on both paths,
// to qnaive exactly (serial, sharded and split, as checkQGemmKernels runs
// it): every N from 1 to 17 and 1000 (channel pairs, an odd last channel
// in the sink), pixel counts 1-13 and 65-67 (every tail mod 8 and 16),
// K of every residue mod 4, alone and after a full K-block; then padded
// 3x3 and 5x5 and strided convolutions (K = 27, 72, 75, 144 and 147 as
// logical weights, odd Cin among them), staged from their pair-row code
// planes on codes laid out by ConvCodes, against the explicit im2row
// matrix of the logical weights;
// and codes of +-127 at K = 25088, qconv.go's accumulator bound, through
// the microkernel a K-block at a time into int32.
func TestQGemmSweepMatchesNaive(t *testing.T) {
	onEachPath(t, testQGemmSweepMatchesNaive)
}

func testQGemmSweepMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(157))
	ns := []int{1000}
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	ms := []int{65, 66, 67}
	for m := 1; m <= 13; m++ {
		ms = append(ms, m)
	}
	for _, n := range ns {
		for _, m := range ms {
			for _, k := range []int{1, 2, 3, 4, gemmKC + 5, gemmKC + 6, gemmKC + 7, 2 * gemmKC} {
				checkQGemmKernels(t, "sweep", randQ(r, m*k), randQ(r, k*n), m, k, n)
			}
		}
	}

	for _, c := range []convCase{
		{"3x3-cin8-K72", 8, 1, 13, 17, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
		{"5x5-cin3-K75", 3, 3, 67, 12, 5, 5, Conv2DSpec{Stride: 1, Pad: 2}},
		{"3x3-cin3-K27-s2", 3, 31, 29, 9, 3, 3, Conv2DSpec{Stride: 2}},
		{"3x3-cin16-K144-s2", 16, 5, 5, 1000, 3, 3, Conv2DSpec{Stride: 2, Pad: 1}},
		{"7x7-cin3-K147-s2", 3, 23, 21, 7, 7, 7, Conv2DSpec{Stride: 2, Pad: 3}},
	} {
		spec := c.spec.check()
		in, w := randQ(r, c.cin*c.h*c.w), randQ(r, c.cout*c.cin*c.kh*c.kw)
		hout, wout := spec.OutDims(c.h, c.w, c.kh, c.kw)
		m, k := hout*wout, c.cin*c.kh*c.kw
		codes := ConvCodes(&QTensor{Shape: Shape{c.cout, c.cin, c.kh, c.kw}, Data: w}).Data
		j := matrixJob(make([]int8, len(codes)/c.cout*m), codes, m, len(codes)/c.cout, c.cout)
		j.geo = convGeom{cin: c.cin, h: c.h, wd: c.w, cout: c.cout, kh: c.kh, kw: c.kw, hout: hout, wout: wout}
		j.spec, j.staged, j.codes = spec, true, pairRows(in, c.cin, c.h*c.w)
		wt := make([]int8, k*c.cout) // the [K, N] transpose of w
		for oc := range c.cout {
			for g := range k {
				wt[g*c.cout+oc] = w[oc*k+g]
			}
		}
		want, got := make([]int32, m*c.cout), make([]int32, m*c.cout)
		qnaive(want, im2rowCodes(in, j.geo, spec), wt, m, k, c.cout)
		qRowRange(got, j, 0, m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: pixel %d channel %d = %d, want %d", c.name, i/c.cout, i%c.cout, got[i], want[i])
			}
		}
	}

	const m, k, n = 7, 25088, 13
	a, b := make([]int8, m*k), make([]int8, k*n)
	for i := range a {
		a[i] = 127
		if i/k%2 == 1 {
			a[i] = -127
		}
	}
	for i := range b {
		b[i] = 127
		if i%n%3 == 1 {
			b[i] = -127
		}
	}
	want := make([]int32, m*n)
	qnaive(want, a, b, m, k, n)
	j, w := matrixJob(a, nil, m, k, n), packB(b, k, n)
	for c := 0; c < n; c += 2 {
		c1 := min(c+1, n-1)
		o0, o1 := make([]int32, m), make([]int32, m)
		for kc := 0; kc < k; kc += gemmKC {
			kb := min(k-kc, gemmKC)
			qpointwiseQuads(o0, o1, j.codes[kc*m:], 2*m, w[c*k+kc:][:kb], w[c1*k+kc:][:kb])
		}
		for p := range m {
			for ci, o := range [][]int32{o0, o1}[:c1-c+1] {
				if g, w := o[p], want[p*n+c+ci]; g != w || (w != 127*127*k && w != -127*127*k) {
					t.Fatalf("K=%d at +-127: pixel %d channel %d = %d, want %d = +-127*127*K", k, p, c+ci, g, w)
				}
			}
		}
	}
}

// TestRequantizeStoreMatchesReference holds the int8 requantize
// (requantizeRow), on both paths, to refRequant element by element, bit
// for bit: rows of 1-17, 24 and 66 pixels (whole groups of eight and the
// masked pixels past them) at two offsets, every activation, bias 0,
// random or -0, and scales that are random or +Inf, so that NaN and both
// infinities meet the clamp; the accumulators span int32 with 0 and both
// extremes salted in. The elements on either side of the row keep their
// sentinel.
func TestRequantizeStoreMatchesReference(t *testing.T) {
	onEachPath(t, testRequantizeStoreMatchesReference)
}

func testRequantizeStoreMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(163))
	const sentinel = 0x7fc0dead
	acts := []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh}
	lens := []int{24, 66}
	for n := 1; n <= 17; n++ {
		lens = append(lens, n)
	}
	for _, n := range lens {
		for _, off := range []int{0, 3} {
			acc := make([]int32, n)
			for i := range acc {
				switch i % 11 {
				case 0:
					acc[i] = 0
				case 5:
					acc[i] = math.MaxInt32
				case 7:
					acc[i] = math.MinInt32
				default:
					acc[i] = int32(r.Uint32()) >> r.Intn(31)
				}
			}
			for _, scale := range []float32{float32(r.ExpFloat64() * 1e-6), float32(math.Inf(1))} {
				for _, shift := range []float32{0, float32(r.NormFloat64()), float32(math.Copysign(0, -1))} {
					for _, act := range acts {
						buf := make([]float32, off+n+2)
						for i := range buf {
							buf[i] = math.Float32frombits(sentinel)
						}
						copy(int32Rows(buf[off:off+n]), acc)
						requantizeRow(buf[off:off+n], scale, shift, act, 0.1)
						for i, v := range buf {
							want := uint32(sentinel)
							if i >= off && i < off+n {
								want = math.Float32bits(refRequant(acc[i-off], scale, shift, act, 0.1))
							}
							if got := math.Float32bits(v); got != want {
								t.Fatalf("n %d at %d scale %g shift %g act %d: element %d = %#08x, want %#08x",
									n, off, scale, shift, act, i, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// im2rowCodes is the [npix, K] im2row matrix of a K x K conv of g over
// the flat code plane codes, [Cin, H, W], a loop nest sharing no code
// with the staging: row p holds pixel p's taps in (ic, ky, kx) order, the
// weights' logical one, 0 in the padding.
func im2rowCodes(codes []int8, g convGeom, spec Conv2DSpec) []int8 {
	padH, padW := spec.padHW()
	k := g.cin * g.kh * g.kw
	out := make([]int8, g.hout*g.wout*k)
	for oy := range g.hout {
		for ox := range g.wout {
			row := out[(oy*g.wout+ox)*k:]
			for ic := range g.cin {
				for ky := range g.kh {
					for kx := range g.kw {
						iy, ix := oy*spec.Stride+ky-padH, ox*spec.Stride+kx-padW
						if iy >= 0 && iy < g.h && ix >= 0 && ix < g.wd {
							row[(ic*g.kh+ky)*g.kw+kx] = codes[(ic*g.h+iy)*g.wd+ix]
						}
					}
				}
			}
		}
	}
	return out
}

// pairRows lays the flat code plane codes, [cin, plane], out as the pair
// rows quantizeRound writes, channels rounded up to the quad, every slot
// no channel fills -32768.
func pairRows(codes []int8, cin, plane int) []int16 {
	rows := make([]int16, (cin+gemmMR-1)&^(gemmMR-1)*plane)
	for i := range rows {
		rows[i] = math.MinInt16
	}
	for i, c := range codes {
		ch, p := i/plane, i%plane
		rows[(ch&^1)*plane+2*p+ch&1] = int16(c)
	}
	return rows
}

// pairRowRead is the [npix, K] matrix an int8 conv of g reads from its
// pair-row code plane codes, a loop nest sharing no code with the
// staging: row p holds pixel p's K codes tap-major, (ky, kx, c) with c
// over Cin rounded up to even, each the plane's slot for channel c at the
// tap's input pixel (an odd Cin's pad channel reads its partner slot), 0
// in the padding.
func pairRowRead(codes []int16, g convGeom, spec Conv2DSpec) []int16 {
	padH, padW := spec.padHW()
	cin, plane := (g.cin+1)&^1, g.h*g.wd
	k := g.kh * g.kw * cin
	out := make([]int16, g.hout*g.wout*k)
	for oy := range g.hout {
		for ox := range g.wout {
			row := out[(oy*g.wout+ox)*k:]
			for ky := range g.kh {
				for kx := range g.kw {
					iy, ix := oy*spec.Stride+ky-padH, ox*spec.Stride+kx-padW
					if iy < 0 || iy >= g.h || ix < 0 || ix >= g.wd {
						continue
					}
					for c := range cin {
						row[(ky*g.kw+kx)*cin+c] = codes[(c&^1)*plane+2*(iy*g.wd+ix)+c&1]
					}
				}
			}
		}
	}
	return out
}

// quantCodeBranchy is the rounding loop body quantCode replaced, kept as
// its reference: a branch on the sign of r picks the half, and the
// product is rounded apart as quantCode's is.
func quantCodeBranchy(v, inv float32) int8 {
	r := float32(v * inv)
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
	return int8(n)
}

// quantCodeInvs are the inverse scales the rounding contract is held at:
// an exact power of two, a ReLU6 activation's 127/6, and a wide
// activation's 127/1e4.
var quantCodeInvs = []float32{0.25, 127.0 / 6, 127.0 / 1e4}

// checkQuantCodes compares quantCode, and quantizePairRow on the path
// useAVX2 picks (eight pairs at a time in the vector body on an AVX2
// host), with the branchy reference on the bit patterns start,
// start+stride, ... below 2^32 at every inverse scale. The patterns go to
// the pair row of each batch's two halves, the last of an odd batch
// alone.
func checkQuantCodes(t testing.TB, start, stride uint64) (n int) {
	const batch = 1 << 10
	vals := make([]float32, 0, batch)
	pairs := make([]int16, batch+1)
	for _, inv := range quantCodeInvs {
		check := func() {
			h := len(vals) / 2
			quantizePairRow(pairs, vals[:h], vals[h:2*h], inv)
			if len(vals)%2 == 1 {
				quantizePairRow(pairs[2*h:], vals[2*h:], nil, inv)
			}
			for i, v := range vals {
				want, pair := quantCodeBranchy(v, inv), int8(pairs[2*h])
				if i < 2*h {
					pair = int8(pairs[2*(i%h)+i/h])
				}
				if got := quantCode(v, inv); got != want || pair != want {
					t.Fatalf("inv %g: %#08x = %g: quantCode %d, the pair row %d; the branchy loop gives %d",
						inv, math.Float32bits(v), v, got, pair, want)
				}
			}
			vals = vals[:0]
		}
		for b := start; b < 1<<32; b += stride {
			if vals = append(vals, math.Float32frombits(uint32(b))); len(vals) == batch {
				check()
			}
			n++
		}
		check()
	}
	return n
}

// TestQuantCodeMatchesBranchyRounding holds the branch-free rounding to
// the loop it replaced on the inputs where the two could part: both
// zeros, NaNs of either sign, both infinities, subnormals of either sign,
// every ±(k+½)/inv tie with the floats either side of it, ±127.5/inv (the
// clamp edge) and the floats past it — then on a strided sweep of 2^24
// bit patterns at each scale. BenchmarkQuantCodeEveryPattern sweeps all
// 2^32.
func TestQuantCodeMatchesBranchyRounding(t *testing.T) {
	nan, negNaN := math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000)
	special := []float32{0, float32(math.Copysign(0, -1)), nan, negNaN, math.Float32frombits(0x7f800001),
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(1), math.Float32frombits(0x807fffff),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32}
	for _, inv := range quantCodeInvs {
		vals := append([]float32(nil), special...)
		for k := 0; k <= 127; k++ {
			for _, tie := range []float32{(float32(k) + 0.5) / inv, -(float32(k) + 0.5) / inv} {
				vals = append(vals, tie, math.Nextafter32(tie, 0), math.Nextafter32(tie, 2*tie))
			}
		}
		for _, v := range vals {
			if got, want := quantCode(v, inv), quantCodeBranchy(v, inv); got != want {
				t.Fatalf("inv %g: quantCode(%g) = %d, the branchy loop gives %d", inv, v, got, want)
			}
		}
	}
	// 127.5/inv and the floats past it clamp, at the power-of-two scale
	// where the tie is exact.
	for edge, n := float32(127.5/0.25), 0; n < 4; edge, n = math.Nextafter32(edge, math.MaxFloat32), n+1 {
		if quantCode(edge, 0.25) != 127 || quantCode(-edge, 0.25) != -127 {
			t.Fatalf("±%g at inv 0.25 = %d, %d; want ±127", edge, quantCode(edge, 0.25), quantCode(-edge, 0.25))
		}
	}
	if n := checkQuantCodes(t, 7, 255); n < 3<<24 {
		t.Fatalf("the strided sweep compared %d codes, want at least 3 x 2^24", n)
	}
}

// BenchmarkQuantCodeEveryPattern is the full sweep: quantCode and the
// quantizer's rows (the vector body on an AVX2 host) against the branchy
// loop on all 2^32 float32 bit patterns at each scale of quantCodeInvs,
// once per iteration (two and a half minutes on a 2-vCPU Xeon; run it
// with -benchtime 1x). It is a benchmark so that the test suite leaves it
// out.
func BenchmarkQuantCodeEveryPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		checkQuantCodes(b, 0, 1)
	}
}

// stagedCodes returns the [npix, K] code matrix of an int8 job as its
// microkernel reads it, pixels [lo, hi) for each cut [lo, hi), a band and
// a K-block at a time: a pointwise job's pair-row plane in place, and a K
// x K job's pair rows as stage stages them into a tile poisoned with
// -32768, a code the quantizer never emits.
func stagedCodes(j *convJob, cuts ...int) []int16 {
	k, npix := j.k, j.npix
	out := make([]int16, npix*k)
	for i := range out {
		out[i] = math.MinInt16
	}
	tile := int32Rows(new(convScratch).tile[:])
	for i := range pairCodes(tile) {
		pairCodes(tile)[i] = math.MinInt16
	}
	for c := 0; c+1 < len(cuts); c++ {
		for p0 := cuts[c]; p0 < cuts[c+1]; p0 += gemmBand {
			p1 := min(p0+gemmBand, cuts[c+1])
			for kc := 0; kc < k; kc += gemmKC {
				kb := min(k-kc, gemmKC)
				var x []int16
				stride := 2 * npix
				if j.staged {
					stage(j, tile, codePairs(j.codes), kc/2, kb/2, p0, p1)
					x, stride = pairCodes(tile), 2*(p1-p0)
				} else {
					x = j.codes[kc*npix+2*p0:]
				}
				for r := range kb {
					for p := p0; p < p1; p++ {
						out[p*k+kc+r] = x[r/2*stride+2*(p-p0)+r&1]
					}
				}
			}
		}
	}
	return out
}

// TestPointwiseQConvStagesRoundedCodes holds the int8 code plane — the
// whole input rounded once (maxAbs, quantizeRound) into pair rows — to
// the serial quantizer: the scale is its scale, and every code its code,
// every slot no channel fills untouched; then the codes the microkernel
// reads, in place for a 1x1 conv or staged for a 3x3 one (stagedCodes),
// to a naive read of that plane (pairRowRead), whole or cut at pixels
// inside and at the edge of a band; and the outputs to the loop-nest
// reference. Planes of 1 to 3025 pixels (55x55) cross 1 to 129 input
// channels (odd ones leave a pair row half written) and output widths of
// every N mod 4, so convs fall below and above the MAC bar; the 3x3 ones
// run at stride 1 and 2 and under Asym pads; on random data and on data
// salted with both zeros, NaNs and an Inf; on the vector bodies and on
// the Go loops.
func TestPointwiseQConvStagesRoundedCodes(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(113))
		sharded := 0
		specs := map[int][]Conv2DSpec{
			1: {{Stride: 1}},
			3: {{Stride: 1, Pad: 1}, {Stride: 2, Pad: 1}, {Stride: 1, PadH: 0, PadW: 1, Asym: true}, {Stride: 2, PadH: 1, PadW: 0, Asym: true}},
		}
		for _, hw := range [][2]int{{1, 1}, {1, 2}, {1, 3}, {7, 9}, {8, 8}, {5, 13}, {55, 55}} {
			h, wd := hw[0], hw[1]
			for ci, cin := range []int{1, 3, 16, 129} {
				for _, kk := range []int{1, 3} {
					if kk == 3 && (h*wd == 3025 || cin == 129) {
						continue
					}
					for _, spec := range specs[kk] {
						spec = spec.check()
						if h+2*spec.PadH < kk || wd+2*spec.PadW < kk {
							continue
						}
						hout, wout := spec.OutDims(h, wd, kk, kk)
						cout := 4 + (h*wd+ci)%4
						qw := QuantizePerChannel(randTensor(r, cout, cin, kk, kk))
						bias := randTensor(r, cout).Data
						for _, salt := range []string{"random", "zeros+NaN", "zeros+NaN+Inf"} {
							in := randTensor(r, cin, h, wd)
							special := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), math.Float32frombits(0xffc00000)}
							if salt == "zeros+NaN+Inf" {
								special = append(special, float32(math.Inf(-1)))
							}
							if salt != "random" {
								for i := range in.Data {
									if i%5 == 0 {
										in.Data[i] = special[(i/5)%len(special)]
									}
								}
							}
							name := fmt.Sprintf("%dx%d %+v in=%dx%d cin=%d cout=%d %s", kk, kk, spec, h, wd, cin, cout, salt)
							codes := make([]int8, len(in.Data))
							sx := quantizeDynamicSerial(codes, in.Data)
							if scale := symmetricScale(maxAbs(in.Data)); math.Float32bits(scale) != math.Float32bits(sx) {
								t.Fatalf("%s: scale %g, the serial quantizer's scale %g", name, scale, sx)
							}
							npix := hout * wout
							j := &convJob{spec: spec, k: (cin + 1) &^ 1 * kk * kk, npix: npix, staged: kk > 1, qw: ConvCodes(qw).Data,
								geo: convGeom{cin: cin, h: h, wd: wd, cout: cout, kh: kk, kw: kk, hout: hout, wout: wout}}
							j.codes = make([]int16, (cin+gemmMR-1)&^(gemmMR-1)*h*wd)
							for i := range j.codes {
								j.codes[i] = math.MinInt16
							}
							quantizeRound(j.codes, in.Data, h*wd, 1/sx)
							if want := pairRows(codes, cin, h*wd); !slices.Equal(j.codes, want) {
								t.Fatalf("%s: the pair-row plane differs from the serial quantizer's codes", name)
							}
							want := pairRowRead(j.codes, j.geo, spec)
							for _, cut := range []int{0, 1, npix / 2, min(gemmBand, npix), npix} {
								got := stagedCodes(j, 0, cut, npix)
								for i := range want {
									if got[i] != want[i] {
										t.Fatalf("%s cut at %d: code[%d] = %d, want %d", name, cut, i, got[i], want[i])
									}
								}
							}
							checkBandedQConv(t, name, in, qw, bias, spec, ActReLU)
							if npix*cin*cout*kk*kk >= parallelThresholdMACs {
								sharded++
							}
						}
					}
				}
			}
		}
		if sharded == 0 {
			t.Fatal("no conv above the MAC bar")
		}
	})
}
