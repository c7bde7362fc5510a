package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// bitsEqual reports whether two float32 slices are bitwise identical —
// the prepacked kernels' contract against their unpacked twins.
func bitsEqual(a, b []float32) bool {
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

// TestGemmPrepackedMatchesBlocked pins the core bitwise contract: the
// prepacked GEMM over AOT panels equals the per-call-packing blocked
// kernel for awkward K/N remainders, K blocks past gemmKC, N blocks
// past gemmNC, and single-row A operands.
func TestGemmPrepackedMatchesBlocked(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	cases := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {4, gemmKC, 9}, {5, gemmKC - 1, 7},
		{2, gemmKC + 1, gemmNC + 3}, {7, 300, 17}, {1, 130, 515},
		{9, 2*gemmKC + 3, 33}, {25, 37, 11},
	}
	for _, c := range cases {
		a := New(c.m, c.k).Randomize(r, 1)
		b := New(c.k, c.n).Randomize(r, 1)
		want := MatMulSerial(a, b)
		pw := PackGemmB(b.Data, c.k, c.n)
		got := New(c.m, c.n)
		gemmPrepackedRange(got.Data, a.Data, pw, 0, c.m)
		if !bitsEqual(got.Data, want.Data) {
			t.Errorf("m=%d k=%d n=%d: prepacked GEMM differs from blocked", c.m, c.k, c.n)
		}
	}
}

// TestGemmPrepackedParallelMatchesSerial shards the prepacked GEMM's
// rows across the worker pool the way the band pass does, which must not
// change a bit relative to both the serial prepacked range and the
// unpacked blocked kernel.
func TestGemmPrepackedParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m, k, n := 96, 200, 130 // 2.4M MACs: above parallelThresholdMACs
	a := New(m, k).Randomize(r, 1)
	b := New(k, n).Randomize(r, 1)
	pw := PackGemmB(b.Data, k, n)
	par := New(m, n)
	parallelFor(m, grainForMACs(k*n), func(lo, hi int) {
		gemmPrepackedRange(par.Data, a.Data, pw, lo, hi)
	})
	ser := New(m, n)
	gemmPrepackedRange(ser.Data, a.Data, pw, 0, m)
	if !bitsEqual(par.Data, ser.Data) {
		t.Fatal("parallel prepacked GEMM differs from serial prepacked")
	}
	want := MatMulSerial(a, b)
	if !bitsEqual(par.Data, want.Data) {
		t.Fatal("parallel prepacked GEMM differs from unpacked blocked")
	}
}

// TestPackConvWeightsSkipsSparse: pruned-grade weights must not pack,
// preserving the unpacked path's zero-skipping sparse dispatch.
func TestPackConvWeightsSkipsSparse(t *testing.T) {
	w := New(8, 4, 3, 3)
	for i := 0; i < len(w.Data)/8; i++ {
		w.Data[i] = 1 // 12.5% nonzero, far past sparseSkipFraction
	}
	if pw := PackConvWeights(w); pw != nil {
		t.Fatal("PackConvWeights packed a sparse weight tensor")
	}
	w.Randomize(rand.New(rand.NewSource(1)), 1)
	if pw := PackConvWeights(w); pw == nil {
		t.Fatal("PackConvWeights refused dense weights")
	}
}

// convCase is one prepacked-vs-unpacked conv comparison geometry.
type convCase struct {
	name         string
	cin, h, w    int
	cout, kh, kw int
	spec         Conv2DSpec
}

func prepackConvCases() []convCase {
	return []convCase{
		{"1x1", 8, 6, 6, 5, 1, 1, Conv2DSpec{Stride: 1}},
		{"3x3-pad", 3, 9, 9, 7, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
		{"3x3-stride2", 6, 11, 11, 9, 3, 3, Conv2DSpec{Stride: 2, Pad: 1}},
		{"asym-1x7", 4, 8, 8, 6, 1, 7, Conv2DSpec{Stride: 1, PadW: 3, Asym: true}},
		{"k-remainder", 16, 7, 7, 11, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}}, // rows=144 > gemmKC
		{"odd-ncols", 5, 5, 7, 4, 3, 3, Conv2DSpec{Stride: 2, Pad: 1}},     // hout*wout odd
	}
}

// TestConv2DPrepackedMatchesGEMM: the prepacked conv (im2row +
// transposed GEMM + transposing bias sweep) must be bitwise identical
// to the unpacked im2col+GEMM conv on every awkward geometry.
func TestConv2DPrepackedMatchesGEMM(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for _, c := range prepackConvCases() {
		in := randTensor(r, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		bias := make([]float32, c.cout)
		for i := range bias {
			bias[i] = r.Float32() - 0.5
		}
		hout, wout := c.spec.OutDims(c.h, c.w, c.kh, c.kw)
		want := New(c.cout, hout, wout)
		Conv2DGEMMFusedInto(want, in, w, bias, c.spec, Epilogue{}, 0)
		pw := PackConvWeights(w)
		if pw == nil {
			t.Fatalf("%s: dense weights did not pack", c.name)
		}
		got := New(c.cout, hout, wout)
		Conv2DPrepackedInto(got, in, pw, bias, c.spec, Epilogue{})
		if !bitsEqual(got.Data, want.Data) {
			t.Errorf("%s: prepacked conv differs from unpacked GEMM conv", c.name)
		}
	}
}

// TestConv2DPrepackedFusedMatchesGEMMFused sweeps every fusable
// epilogue (affine alone, each activation, affine+activation) against
// the unpacked fused GEMM kernel, bitwise.
func TestConv2DPrepackedFusedMatchesGEMMFused(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	c := convCase{"fused", 6, 9, 9, 8, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}}
	in := randTensor(r, c.cin, c.h, c.w)
	w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
	bias := make([]float32, c.cout)
	scale := make([]float32, c.cout)
	shift := make([]float32, c.cout)
	for i := range bias {
		bias[i] = r.Float32() - 0.5
		scale[i] = r.Float32() + 0.5
		shift[i] = r.Float32() - 0.5
	}
	pw := PackConvWeights(w)
	hout, wout := c.spec.OutDims(c.h, c.w, c.kh, c.kw)
	epis := []Epilogue{
		{Scale: scale, Shift: shift},
		{Act: ActReLU},
		{Scale: scale, Shift: shift, Act: ActReLU},
		{Scale: scale, Shift: shift, Act: ActReLU6},
		{Scale: scale, Shift: shift, Act: ActLeakyReLU, Alpha: 0.1},
		{Scale: scale, Shift: shift, Act: ActSigmoid},
		{Scale: scale, Shift: shift, Act: ActTanh},
	}
	for _, epi := range epis {
		want := New(c.cout, hout, wout)
		Conv2DGEMMFusedInto(want, in, w, bias, c.spec, epi, 0)
		got := New(c.cout, hout, wout)
		Conv2DPrepackedInto(got, in, pw, bias, c.spec, epi)
		if !bitsEqual(got.Data, want.Data) {
			t.Errorf("act=%d affine=%v: prepacked fused conv differs from unpacked", epi.Act, len(epi.Scale) > 0)
		}
	}
}

// TestConv2DPrepackedLargeParallel crosses the GEMM parallel threshold
// on the whole conv so the sharded prepacked path runs against the
// sharded unpacked path — still bitwise.
func TestConv2DPrepackedLargeParallel(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	in := randTensor(r, 32, 24, 24)
	w := randTensor(r, 48, 32, 3, 3)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	want := New(48, 24, 24)
	Conv2DGEMMFusedInto(want, in, w, nil, spec, Epilogue{}, 0)
	pw := PackConvWeights(w)
	got := New(48, 24, 24)
	Conv2DPrepackedInto(got, in, pw, nil, spec, Epilogue{})
	if !bitsEqual(got.Data, want.Data) {
		t.Fatal("large prepacked conv differs from unpacked GEMM conv")
	}
}

// TestQGemmPrepackedMatchesSerial pins the int8 twin: prepacked QGEMM
// equals the unpacked blocked kernel, including the odd-M single-row
// remainder and K blocks past qgemmKC.
func TestQGemmPrepackedMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	cases := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 7, 3}, {5, qgemmKC, 9}, {3, qgemmKC - 1, 7}, // odd m: pair remainder
		{4, qgemmKC + 5, 17}, {7, 300, qgemmNC + 3}, {9, 37, 11},
	}
	for _, c := range cases {
		a := randQ(r, c.m*c.k)
		b := randQ(r, c.k*c.n)
		want := make([]int32, c.m*c.n)
		QGEMMSerial(want, a, b, c.m, c.k, c.n)
		pq := PackQGemmB(b, c.k, c.n)
		got := make([]int32, c.m*c.n)
		QGemmPrepacked(got, a, pq, c.m)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("m=%d k=%d n=%d: prepacked QGEMM differs at %d: %d vs %d",
					c.m, c.k, c.n, i, got[i], want[i])
			}
		}
	}
}

// TestConv2DQPrepackedMatchesUnpacked: the prepacked int8 conv must be
// bitwise identical to Conv2DQInt8Into under both per-tensor and
// per-channel weight quantization, with and without activations, on
// odd output-pixel counts (odd-M row pairs in the transposed GEMM).
func TestConv2DQPrepackedMatchesUnpacked(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	cases := []convCase{
		{"q-3x3", 6, 9, 9, 8, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
		{"q-1x1", 8, 6, 6, 5, 1, 1, Conv2DSpec{Stride: 1}},
		{"q-odd-ncols", 5, 5, 7, 4, 3, 3, Conv2DSpec{Stride: 2, Pad: 1}},
	}
	for _, c := range cases {
		in := randTensor(r, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		bias := make([]float32, c.cout)
		for i := range bias {
			bias[i] = r.Float32() - 0.5
		}
		hout, wout := c.spec.OutDims(c.h, c.w, c.kh, c.kw)
		for _, qw := range []*QTensor{QuantizeSymmetric(w), QuantizePerChannel(w)} {
			for _, act := range []Act{ActNone, ActReLU, ActLeakyReLU} {
				want := New(c.cout, hout, wout)
				Conv2DQInt8Into(want, in, qw, bias, c.spec, act, 0.1)
				pq := PackQConvWeights(qw)
				got := New(c.cout, hout, wout)
				Conv2DQPrepackedInto(got, in, pq, qw, bias, c.spec, act, 0.1)
				if !bitsEqual(got.Data, want.Data) {
					t.Errorf("%s act=%d perchannel=%v: prepacked int8 conv differs", c.name, act, qw.Scales != nil)
				}
			}
		}
	}
}

// TestDenseQPrepackedMatchesUnpacked: prepacked int8 dense (single-row
// QGEMM) vs the unpacked matvec path, per-tensor and per-channel.
func TestDenseQPrepackedMatchesUnpacked(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for _, dims := range [][2]int{{7, 13}, {33, 300}, {64, 129}} {
		out, in := dims[0], dims[1]
		w := randTensor(r, out, in)
		x := randTensor(r, in)
		bias := make([]float32, out)
		for i := range bias {
			bias[i] = r.Float32() - 0.5
		}
		for _, qw := range []*QTensor{QuantizeSymmetric(w), QuantizePerChannel(w)} {
			want := make([]float32, out)
			DenseQInt8Into(want, qw, bias, x.Data, ActReLU, 0)
			pq := PackQDenseWeights(qw)
			got := make([]float32, out)
			DenseQPrepackedInto(got, pq, qw, bias, x.Data, ActReLU, 0)
			if !bitsEqual(got, want) {
				t.Errorf("out=%d in=%d perchannel=%v: prepacked int8 dense differs", out, in, qw.Scales != nil)
			}
		}
	}
}

// TestConv2DPrepackedScratchPool: a call handed recycled scratch — the
// package pool's buffers left dirty by a larger convolution over
// different values — must produce the same bits as a call on fresh
// scratch, and the same bits as the unpacked GEMM reference.
func TestConv2DPrepackedScratchPool(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	c := convCase{"scratch", 6, 9, 9, 8, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}}
	in := randTensor(r, c.cin, c.h, c.w)
	w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
	pw := PackConvWeights(w)
	hout, wout := c.spec.OutDims(c.h, c.w, c.kh, c.kw)
	want := New(c.cout, hout, wout)
	fresh := &convJob{out: want.Data, in: in, pw: pw, spec: c.spec.check(), kh: c.kh, kw: c.kw, wout: wout, ncols: hout * wout}
	fresh.band(new(convScratch), 0, hout*wout)
	big := randTensor(r, 7, 15, 15)
	bigW := PackConvWeights(randTensor(r, 9, 7, 3, 3))
	Conv2DPrepackedInto(New(9, 15, 15), big, bigW, nil, c.spec, Epilogue{})
	got := New(c.cout, hout, wout)
	Conv2DPrepackedInto(got, in, pw, nil, c.spec, Epilogue{})
	if !bitsEqual(got.Data, want.Data) {
		t.Fatal("prepacked conv on recycled scratch differs from fresh scratch")
	}
	ref := New(c.cout, hout, wout)
	Conv2DGEMMFusedInto(ref, in, w, nil, c.spec, Epilogue{}, 0)
	if !bitsEqual(got.Data, ref.Data) {
		t.Fatal("prepacked conv differs from the unpacked GEMM reference")
	}
}
