package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// bitsEqual reports whether two float32 slices are bitwise identical —
// the GEMM kernels' contract against their loop-nest references.
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
// tile loop over packed panels equals the blocked order written out
// element by element (oneRowGemm) for awkward K/N remainders, K blocks
// past gemmKC, N blocks past gemmNC, and single-row A operands.
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
		want := New(c.m, c.n)
		oneRowGemm(want.Data, a.Data, b.Data, c.m, c.k, c.n)
		if !bitsEqual(blockedMatMul(a, b).Data, want.Data) {
			t.Errorf("m=%d k=%d n=%d: prepacked GEMM differs from the blocked order", c.m, c.k, c.n)
		}
	}
}

// TestGemmPrepackedParallelMatchesSerial shards the prepacked GEMM's
// rows across the worker pool the way the band pass does, which must not
// change a bit relative to both the serial prepacked range and the
// blocked order written out element by element.
func TestGemmPrepackedParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m, k, n := 96, 200, 130 // 2.4M MACs: above parallelThresholdMACs
	a := New(m, k).Randomize(r, 1)
	b := New(k, n).Randomize(r, 1)
	pw := packB(gemmFP32, b.Data, k, n)
	par := New(m, n)
	parallelFor(m, grainForMACs(k*n), func(lo, hi int) {
		gemmFP32.rowRange(par.Data, a.Data, pw, lo, hi)
	})
	ser := New(m, n)
	gemmFP32.rowRange(ser.Data, a.Data, pw, 0, m)
	if !bitsEqual(par.Data, ser.Data) {
		t.Fatal("parallel prepacked GEMM differs from serial prepacked")
	}
	want := New(m, n)
	oneRowGemm(want.Data, a.Data, b.Data, m, k, n)
	if !bitsEqual(par.Data, want.Data) {
		t.Fatal("parallel prepacked GEMM differs from the blocked order")
	}
}

// convPacked is the GEMM convolution from a weight tensor: w packed for
// the call, then Conv2DPrepackedInto on the panels.
func convPacked(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue) {
	Conv2DPrepackedInto(dst, in, PackConvWeights(w), bias, spec, epi)
}

// convCase is one conv geometry the packed kernel is held to the reference on.
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

// TestConv2DPrepackedMatchesGEMM: the GEMM conv (im2row + transposed
// GEMM + transposing bias sweep) on packed panels must be bitwise
// identical to the loop-nest reference on every awkward geometry.
func TestConv2DPrepackedMatchesGEMM(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for _, c := range prepackConvCases() {
		in := randTensor(r, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		bias := make([]float32, c.cout)
		for i := range bias {
			bias[i] = r.Float32() - 0.5
		}
		checkBandedConv(t, c.name, in, w, PackConvWeights(w), bias, c.spec, Epilogue{})
	}
}

// TestConv2DPrepackedFusedMatchesGEMMFused sweeps every fusable
// epilogue (affine alone, each activation, affine+activation) against
// the loop-nest reference, bitwise.
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
		checkBandedConv(t, fmt.Sprintf("act=%d affine=%v", epi.Act, len(epi.Scale) > 0), in, w, pw, bias, c.spec, epi)
	}
}

// TestConv2DPrepackedLargeParallel crosses the GEMM parallel threshold
// on the whole conv so the sharded band pass runs — still bitwise the
// loop-nest reference.
func TestConv2DPrepackedLargeParallel(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	in := randTensor(r, 32, 24, 24)
	w := randTensor(r, 48, 32, 3, 3)
	checkBandedConv(t, "large", in, w, PackConvWeights(w), nil, Conv2DSpec{Stride: 1, Pad: 1}, Epilogue{})
}

// TestQGemmPrepackedMatchesSerial pins the int8 twin: the tile loop on
// packed panels, whole, sharded and split, equals the plain triple loop,
// including the odd-M single-row remainder and K blocks past qgemmKC.
func TestQGemmPrepackedMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	cases := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 7, 3}, {5, qgemmKC, 9}, {3, qgemmKC - 1, 7}, // odd m: pair remainder
		{4, qgemmKC + 5, 17}, {7, 300, qgemmNC + 3}, {9, 37, 11},
	}
	for _, c := range cases {
		checkQGemmKernels(t, "prepacked", randQ(r, c.m*c.k), randQ(r, c.k*c.n), c.m, c.k, c.n)
	}
}

// TestConv2DQPrepackedMatchesUnpacked: the int8 conv on packed panels,
// reused or fresh, must be bitwise identical to the loop-nest reference
// under both per-tensor and per-channel weight quantization, with and
// without activations, on odd output-pixel counts (odd-M row pairs in
// the transposed GEMM).
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
		for _, qw := range []*QTensor{QuantizeSymmetric(w), QuantizePerChannel(w)} {
			for _, act := range []Act{ActNone, ActReLU, ActLeakyReLU} {
				name := fmt.Sprintf("%s act=%d perchannel=%v", c.name, act, qw.Scales != nil)
				checkBandedQConv(t, name, in, qw, PackQConvWeights(qw), bias, c.spec, act)
			}
		}
	}
}

// TestDenseQPrepackedMatchesUnpacked: int8 dense (single-row QGEMM) on
// packed panels vs the loop-nest reference on the unpacked codes,
// per-tensor and per-channel.
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
			want := refQDense(qw, bias, x.Data, ActReLU, 0)
			got := make([]float32, out)
			DenseQPrepackedInto(got, PackQDenseWeights(qw), qw, bias, x.Data, ActReLU, 0)
			if !bitsEqual(got, want) {
				t.Errorf("out=%d in=%d perchannel=%v: int8 dense differs from the loop-nest reference", out, in, qw.Scales != nil)
			}
		}
	}
}

// TestConv2DPrepackedScratchPool: a call handed recycled scratch — the
// package pool's buffers left dirty by a larger convolution over
// different values — must produce the same bits as a band on fresh
// scratch, and the same bits as the loop-nest reference.
func TestConv2DPrepackedScratchPool(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	c := convCase{"scratch", 6, 9, 9, 8, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}}
	in := randTensor(r, c.cin, c.h, c.w)
	w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
	pw := PackConvWeights(w)
	hout, wout := c.spec.OutDims(c.h, c.w, c.kh, c.kw)
	want := New(c.cout, hout, wout)
	spec := c.spec.check()
	fresh := &bandJob[float32, float32, float32]{g: &gemm[float32, float32, float32]{kc: gemmKC, nc: gemmNC, mr: gemmMR, packPanel: packPanel, panelRows: gemmPanelRows, store: storeFP32,
		scratch: sync.Pool{New: func() any { return new(bandScratch[float32]) }}},
		out: want.Data, in: in.Data, geo: convGeometry(want, in, pw.Shape, nil, spec), spec: spec, pw: pw}
	fresh.bands(0, (hout*wout+1)/2) // a gemm value of its own: pools nothing has touched
	big := randTensor(r, 7, 15, 15)
	bigW := PackConvWeights(randTensor(r, 9, 7, 3, 3))
	Conv2DPrepackedInto(New(9, 15, 15), big, bigW, nil, c.spec, Epilogue{})
	got := New(c.cout, hout, wout)
	Conv2DPrepackedInto(got, in, pw, nil, c.spec, Epilogue{})
	if !bitsEqual(got.Data, want.Data) {
		t.Fatal("prepacked conv on recycled scratch differs from fresh scratch")
	}
	if ref := refConvBlocked(in, w, nil, c.spec, Epilogue{}); !bitsEqual(got.Data, ref.Data) {
		t.Fatal("prepacked conv differs from the loop-nest reference")
	}
}
