package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refRequant is one element of the int8 epilogue, act(acc*scale + bias),
// with the activation written as compares and branches (refAct).
func refRequant(acc int32, scale, bias float32, act Act, alpha float32) float32 {
	return refAct(float32(float32(acc)*scale)+bias, act, alpha)
}

// refQConv is the reference for every int8 convolution, and shares no
// code with them: the serial reference
// quantizer, a naive int32 convolution over the codes, and refRequant —
// integer accumulation is exact and the float expressions are per
// element, so the kernels must match it bit for bit.
func refQConv(in *Tensor, qw *QTensor, bias []float32, spec Conv2DSpec, act Act, alpha float32) *Tensor {
	spec = spec.check()
	cin, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	cout, kh, kw := qw.Shape[0], qw.Shape[2], qw.Shape[3]
	hout, wout := spec.OutDims(h, wd, kh, kw)
	padH, padW := spec.padHW()
	qin := make([]int8, len(in.Data))
	sx := quantizeDynamicSerial(qin, in.Data)
	out := New(cout, hout, wout)
	for oc := 0; oc < cout; oc++ {
		var b float32
		if bias != nil {
			b = bias[oc]
		}
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				var acc int32
				for ic := 0; ic < cin; ic++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*spec.Stride + ky - padH
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*spec.Stride + kx - padW
							if ix < 0 || ix >= wd {
								continue
							}
							acc += int32(qin[(ic*h+iy)*wd+ix]) *
								int32(qw.Data[((oc*cin+ic)*kh+ky)*kw+kx])
						}
					}
				}
				out.Data[(oc*hout+oy)*wout+ox] = refRequant(acc, sx*qw.ScaleFor(oc), b, act, alpha)
			}
		}
	}
	return out
}

// refQDense is the same for an int8 dense layer: reference quantizer, a
// plain int32 dot product per output, refRequant.
func refQDense(qw *QTensor, bias, x []float32, act Act, alpha float32) []float32 {
	out, in := qw.Shape[0], qw.Shape[1]
	qx := make([]int8, in)
	sx := quantizeDynamicSerial(qx, x)
	want := make([]float32, out)
	for i := range want {
		var acc int32
		for j, c := range qx {
			acc += int32(qw.Data[i*in+j]) * int32(c)
		}
		want[i] = refRequant(acc, sx*qw.ScaleFor(i), bias[i], act, alpha)
	}
	return want
}

// qdenseView runs the int8 dense layer of qw [Out, In] on x into dst the
// way the graph's convQ does: the 1x1 conv of x as an [In, 1, 1] plane,
// packed from an [Out, In, 1, 1] header on qw's codes and scales.
func qdenseView(dst []float32, qw *QTensor, bias, x []float32, act Act, alpha float32) {
	view := *qw
	view.Shape = Shape{qw.Shape[0], qw.Shape[1], 1, 1}
	Conv2DQInto(&Tensor{Shape: Shape{len(dst), 1, 1}, Data: dst}, &Tensor{Shape: view.Shape[1:], Data: x}, &view,
		bias, Conv2DSpec{}, act, alpha)
}

func randTensor(r *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64())
	}
	return t
}

// TestConv2DQInt8MatchesIntegerReference holds a few padded, strided and
// pointwise int8 convs to refQConv's integer loop nest, on both paths.
func TestConv2DQInt8MatchesIntegerReference(t *testing.T) {
	onEachPath(t, testConv2DQInt8MatchesIntegerReference)
}

func testConv2DQInt8MatchesIntegerReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	cases := []struct {
		cin, h, w, cout, kh, kw int
		spec                    Conv2DSpec
		act                     Act
	}{
		{3, 8, 8, 4, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}, ActReLU},
		{2, 7, 9, 5, 3, 3, Conv2DSpec{Stride: 2, Pad: 1}, ActNone},
		{1, 5, 5, 2, 1, 1, Conv2DSpec{}, ActReLU6},
		{4, 6, 6, 3, 5, 5, Conv2DSpec{Stride: 1, Pad: 2}, ActLeakyReLU},
	}
	for _, tc := range cases {
		in := randTensor(r, tc.cin, tc.h, tc.w)
		w := randTensor(r, tc.cout, tc.cin, tc.kh, tc.kw)
		bias := make([]float32, tc.cout)
		for i := range bias {
			bias[i] = float32(r.NormFloat64())
		}
		for _, qw := range []*QTensor{QuantizeSymmetric(w), QuantizePerChannel(w)} {
			want := refQConv(in, qw, bias, tc.spec, tc.act, 0.1)
			got := New(want.Shape...)
			Conv2DQInto(got, in, qw, bias, tc.spec, tc.act, 0.1)
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("case %+v: out[%d] = %g, want %g", tc, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestConv2DQInt8CloseToFP32(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := randTensor(r, 3, 12, 12)
	w := randTensor(r, 8, 3, 3, 3)
	bias := make([]float32, 8)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	ref := refConvBlocked(in, w, bias, spec, Epilogue{})
	got := New(ref.Shape...)
	qw := QuantizePerChannel(w)
	Conv2DQInto(got, in, qw, bias, spec, ActNone, 0)
	var maxDiff, maxMag float64
	for i := range ref.Data {
		d := math.Abs(float64(got.Data[i] - ref.Data[i]))
		if d > maxDiff {
			maxDiff = d
		}
		if m := math.Abs(float64(ref.Data[i])); m > maxMag {
			maxMag = m
		}
	}
	if maxDiff > 0.05*maxMag {
		t.Fatalf("int8 conv drifts %.4f from FP32 (max magnitude %.4f)", maxDiff, maxMag)
	}
}

func TestDenseQInt8MatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const out, in = 17, 300
	w := randTensor(r, out, in)
	x := make([]float32, in)
	for i := range x {
		x[i] = float32(r.NormFloat64())
	}
	bias := make([]float32, out)
	for i := range bias {
		bias[i] = float32(r.NormFloat64())
	}
	for _, qw := range []*QTensor{QuantizeSymmetric(w), QuantizePerChannel(w)} {
		want := refQDense(qw, bias, x, ActReLU, 0)
		got := make([]float32, out)
		qdenseView(got, qw, bias, x, ActReLU, 0)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dense out[%d] = %g, want %g", i, got[i], want[i])
			}
		}
	}
}

func TestQuantizeDynamicIntoProperties(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	src := make([]float32, 257)
	for i := range src {
		src[i] = float32(r.NormFloat64() * 3)
	}
	dst := make([]int8, len(src))
	scale := quantizeDynamic(dst, src)
	if scale <= 0 {
		t.Fatalf("scale %g <= 0", scale)
	}
	for i, q := range dst {
		if q < -127 {
			t.Fatalf("code %d at %d below -127", q, i)
		}
		if math.Abs(float64(float32(q)*scale-src[i])) > float64(scale)/2+1e-6 {
			t.Fatalf("dequant error at %d exceeds scale/2", i)
		}
	}
	// All-zero input quantizes with the degenerate-scale guard.
	zero := make([]int8, 4)
	if s := quantizeDynamic(zero, make([]float32, 4)); s != 1 {
		t.Fatalf("zero-input scale %g, want 1", s)
	}
}
