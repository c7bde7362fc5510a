package tensor

import (
	"fmt"
	"math"
	"math/rand"
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
// channel-major kernel on weights read in place equals the blocked order
// written out element by element (oneRowGemm) for awkward K remainders, K
// past a staged K-block, N past a band, and single-row products.
func TestGemmPrepackedMatchesBlocked(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	cases := []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 2}, {4, gemmKC, 9}, {5, gemmKC - 1, 7},
		{2, gemmKC + 1, gemmBand + 3}, {7, 300, 17}, {1, 130, 515},
		{9, 2*gemmKC + 3, 33}, {25, 37, 11},
	}
	for _, c := range cases {
		a := New(c.m, c.k).Randomize(r, 1)
		b := New(c.k, c.n).Randomize(r, 1)
		want := New(c.m, c.n)
		oneRowGemm(want.Data, a.Data, b.Data, c.m, c.k, c.n)
		if !bitsEqual(blockedMatMul(a, b).Data, want.Data) {
			t.Errorf("m=%d k=%d n=%d: channel-major product differs from the blocked order", c.m, c.k, c.n)
		}
	}
}

// TestGemmPrepackedParallelMatchesSerial shards the channel-major
// product across the worker pool both ways the kernel cuts — by columns
// and by row pairs — which must not change a bit relative to both the
// serial product and the blocked order written out element by element.
func TestGemmPrepackedParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	m, k, n := 95, 200, 130 // 2.5M MACs: above parallelThresholdMACs
	a := New(m, k).Randomize(r, 1)
	b := New(k, n).Randomize(r, 1)
	ser := blockedMatMul(a, b)
	want := New(m, n)
	oneRowGemm(want.Data, a.Data, b.Data, m, k, n)
	if !bitsEqual(ser.Data, want.Data) {
		t.Fatal("serial channel-major product differs from the blocked order")
	}
	for _, byPairs := range []bool{false, true} {
		par, units := dirty(m, n), n
		if byPairs {
			units = (m + 1) / 2
		}
		parallelFor(units, 7, matMulJob(par.Data, a.Data, b.Data, m, k, n, byPairs).shard)
		if !bitsEqual(par.Data, ser.Data) {
			t.Fatalf("byPairs=%v: parallel channel-major product differs from serial", byPairs)
		}
	}
}

// convCase is one conv geometry a kernel is held to the reference on.
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

// TestConv2DPrepackedMatchesGEMM: the channel-major conv on its weights in
// place must be bitwise identical to the loop-nest reference on every
// awkward geometry.
func TestConv2DPrepackedMatchesGEMM(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for _, c := range prepackConvCases() {
		in := randTensor(r, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		bias := make([]float32, c.cout)
		for i := range bias {
			bias[i] = r.Float32() - 0.5
		}
		checkBandedConv(t, c.name, in, w, bias, c.spec, Epilogue{})
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
		checkBandedConv(t, fmt.Sprintf("act=%d affine=%v", epi.Act, len(epi.Scale) > 0), in, w, bias, c.spec, epi)
	}
}

// TestConv2DPrepackedLargeParallel crosses the parallel threshold on a
// K x K conv so its sharded bands run — still bitwise the loop-nest
// reference.
func TestConv2DPrepackedLargeParallel(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	in := randTensor(r, 32, 24, 24)
	w := randTensor(r, 48, 32, 3, 3)
	checkBandedConv(t, "large", in, w, nil, Conv2DSpec{Stride: 1, Pad: 1}, Epilogue{})
}

// TestQGemmPrepackedMatchesSerial pins the int8 twin: the int8
// convolution as a GEMM on its weight codes in place, whole, sharded and
// split, equals the plain triple loop, including odd M and K-blocks past
// gemmKC.
func TestQGemmPrepackedMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	cases := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 7, 3}, {5, gemmKC, 9}, {3, gemmKC - 1, 7},
		{4, gemmKC + 5, 17}, {7, 300, 515}, {9, 37, 11},
	}
	for _, c := range cases {
		checkQGemmKernels(t, "prepacked", randQ(r, c.m*c.k), randQ(r, c.k*c.n), c.m, c.k, c.n)
	}
}

// TestConv2DQPrepackedMatchesUnpacked: the int8 conv on its codes in
// place, on fresh and on recycled scratch, must be bitwise identical to
// the loop-nest reference under both per-tensor and per-channel weight
// quantization, with and without activations, on odd output-pixel
// counts.
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
				checkBandedQConv(t, name, in, qw, bias, c.spec, act)
			}
		}
	}
}

// TestDenseQPrepackedMatchesUnpacked: int8 dense, the 1x1 conv of its
// input's [In, 1, 1] view on its codes in place (qdenseView, as the graph
// runs it), vs the loop-nest reference, per-tensor and per-channel.
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
			qdenseView(got, qw, bias, x.Data, ActReLU, 0)
			if !bitsEqual(got, want) {
				t.Errorf("out=%d in=%d perchannel=%v: int8 dense differs from the loop-nest reference", out, in, qw.Scales != nil)
			}
		}
	}
}

// TestConv2DPrepackedScratchPool: a K x K call handed recycled scratch —
// the pool's tile and sink left full of NaN — must produce the same bits
// as bands on fresh scratch, and the same bits as the loop-nest
// reference: every staged row, padding and K-tail rows included, is
// written before it is read.
func TestConv2DPrepackedScratchPool(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	for _, c := range []convCase{
		{"K54-tail", 6, 9, 9, 7, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
		{"K150-2blocks", 6, 9, 9, 8, 5, 5, Conv2DSpec{Stride: 2, Pad: 2}},
		{"1x1-K7", 7, 9, 9, 5, 1, 1, Conv2DSpec{Stride: 1}},
	} {
		in := randTensor(r, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		spec := c.spec.check()
		hout, wout := spec.OutDims(c.h, c.w, c.kh, c.kw)
		want := dirty(c.cout, hout, wout)
		j := &convJob{out: want.Data, in: in.Data, w: w.Data, geo: convGeometry(want, in, w.Shape, nil, spec), spec: spec,
			k: c.cin * c.kh * c.kw, npix: hout * wout, staged: !pointwise(c.kh, c.kw, spec)}
		for p := 0; p < j.npix; p += gemmBand {
			j.band(new(convScratch), 0, (c.cout+1)/2, p, min(p+gemmBand, j.npix)) // scratch nothing has touched
		}
		poisonBandScratch()
		got := dirty(want.Shape...)
		Conv2DInto(got, in, w, nil, spec, Epilogue{})
		if !bitsEqual(got.Data, want.Data) {
			t.Fatalf("%s: conv on recycled scratch differs from fresh scratch", c.name)
		}
		if ref := refConvBlocked(in, w, nil, spec, Epilogue{}); !bitsEqual(got.Data, ref.Data) {
			t.Fatalf("%s: conv differs from the loop-nest reference", c.name)
		}
	}
}
