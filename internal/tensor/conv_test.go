package tensor

import (
	"testing"
	"testing/quick"

	"edgebench/internal/stats"
)

func TestMatMulSmall(t *testing.T) {
	a := FromData([]float32{1, 2, 3, 4}, 2, 2)
	b := FromData([]float32{5, 6, 7, 8}, 2, 2)
	c := blockedMatMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched inner dims should panic")
		}
	}()
	MatVec(New(2, 3), make([]float32, 4))
}

func TestMatVec(t *testing.T) {
	a := FromData([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	got := MatVec(a, []float32{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MatVec = %v", got)
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	in := FromData([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	w := FromData([]float32{1}, 1, 1, 1, 1) // 1x1 identity
	out := into(func(d *Tensor) { Conv2DInto(d, in, w, nil, Conv2DSpec{Stride: 1}, Epilogue{}) }, 1, 3, 3)
	if !out.Shape.Equal(Shape{1, 3, 3}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatal("1x1 identity conv should copy input")
		}
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 input, 2x2 kernel of ones, stride 1, no pad -> 2x2 box sums.
	in := FromData([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	w := New(1, 1, 2, 2).Fill(1)
	out := into(func(d *Tensor) { Conv2DInto(d, in, w, []float32{10}, Conv2DSpec{}, Epilogue{}) }, 1, 2, 2)
	want := []float32{12 + 10, 16 + 10, 24 + 10, 28 + 10}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
}

func TestConv2DPaddingAndStride(t *testing.T) {
	in := New(1, 4, 4).Fill(1)
	w := New(1, 1, 3, 3).Fill(1)
	out := into(func(d *Tensor) { Conv2DInto(d, in, w, nil, Conv2DSpec{Stride: 2, Pad: 1}, Epilogue{}) }, 1, 2, 2)
	if !out.Shape.Equal(Shape{1, 2, 2}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	// Corner at (0,0) covers a 2x2 in-bounds region.
	if out.At(0, 0, 0) != 4 {
		t.Fatalf("corner = %v, want 4", out.At(0, 0, 0))
	}
}

func TestConv2DChannelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("channel mismatch should panic")
		}
	}()
	Conv2DInto(New(1, 3, 3), New(2, 3, 3), New(1, 3, 1, 1), nil, Conv2DSpec{}, Epilogue{})
}

// Property: the packed convolution equals the blocked reference bit for
// bit.
func TestConvGEMMEquivalenceProperty(t *testing.T) {
	r := stats.NewRNG(42)
	f := func(seed int64) bool {
		cin := 1 + int(seed&3)
		cout := 1 + int(seed>>2&3)
		h := 5 + int(seed>>4&3)
		k := 1 + int(seed>>6&1)*2 // 1 or 3
		stride := 1 + int(seed>>7&1)
		pad := int(seed >> 8 & 1)
		if h+2*pad < k {
			return true
		}
		in := New(cin, h, h).Randomize(r, 1)
		w := New(cout, cin, k, k).Randomize(r, 1)
		bias := make([]float32, cout)
		for i := range bias {
			bias[i] = r.Float32()
		}
		spec := Conv2DSpec{Stride: stride, Pad: pad}
		a := refConvBlocked(in, w, bias, spec, Epilogue{})
		b := into(func(d *Tensor) { Conv2DInto(d, in, w, bias, spec, Epilogue{}) }, a.Shape...)
		return bitsEqual(a.Data, b.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthwiseConv2D(t *testing.T) {
	// Two channels, each with its own 2x2 ones kernel; channels stay apart.
	in := New(2, 3, 3)
	for i := range in.Data[:9] {
		in.Data[i] = 1
	}
	for i := range in.Data[9:] {
		in.Data[9+i] = 2
	}
	w := New(2, 2, 2).Fill(1)
	out := into(func(d *Tensor) { DepthwiseConv2DFusedInto(d, in, w, []float32{0, 1}, Conv2DSpec{}, Epilogue{}) }, 2, 2, 2)
	if out.At(0, 0, 0) != 4 {
		t.Fatalf("ch0 = %v, want 4", out.At(0, 0, 0))
	}
	if out.At(1, 0, 0) != 9 {
		t.Fatalf("ch1 = %v, want 8+1", out.At(1, 0, 0))
	}
}

func TestDepthwiseMatchesGroupedDirect(t *testing.T) {
	// Depthwise conv == per-channel direct conv with Cin=1.
	r := stats.NewRNG(7)
	in := New(4, 6, 6).Randomize(r, 1)
	w := New(4, 3, 3).Randomize(r, 1)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	dw := into(func(d *Tensor) { DepthwiseConv2DFusedInto(d, in, w, nil, spec, Epilogue{}) }, 4, 6, 6)
	for c := 0; c < 4; c++ {
		chIn := FromData(in.Data[c*36:(c+1)*36], 1, 6, 6)
		chW := FromData(w.Data[c*9:(c+1)*9], 1, 1, 3, 3)
		ref := refConvBlocked(chIn, chW, nil, spec, Epilogue{})
		for i := range ref.Data {
			if !almostEq32(ref.Data[i], dw.Data[c*36+i], 1e-5) {
				t.Fatalf("channel %d diverges at %d", c, i)
			}
		}
	}
}

func TestConv3DKnownValues(t *testing.T) {
	in := New(1, 2, 2, 2).Fill(1)
	w := New(1, 1, 2, 2, 2).Fill(1)
	out := Conv3D(in, w, []float32{0.5}, Conv3DSpec{})
	if !out.Shape.Equal(Shape{1, 1, 1, 1}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	if out.Data[0] != 8.5 {
		t.Fatalf("value = %v, want 8.5", out.Data[0])
	}
}

func TestConv3DPadding(t *testing.T) {
	in := New(1, 2, 2, 2).Fill(1)
	w := New(2, 1, 3, 3, 3).Fill(1)
	out := Conv3D(in, w, nil, Conv3DSpec{Pad: 1})
	if !out.Shape.Equal(Shape{2, 2, 2, 2}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	if out.Data[0] != 8 { // all 8 in-bounds ones
		t.Fatalf("value = %v, want 8", out.Data[0])
	}
}

func TestMaxPool3D(t *testing.T) {
	in := New(1, 2, 2, 2)
	in.Data[7] = 5
	out := MaxPool3DSpec(in, Pool3DSpec{KernelD: 2, Kernel: 2, StrideD: 2, Stride: 2})
	if !out.Shape.Equal(Shape{1, 1, 1, 1}) || out.Data[0] != 5 {
		t.Fatalf("MaxPool3DSpec = %v %v", out.Shape, out.Data)
	}
}

func TestConvSpecOutDim(t *testing.T) {
	s := Conv2DSpec{Stride: 2, Pad: 1}
	if h, w := s.OutDims(224, 224, 3, 3); h != 112 || w != 112 {
		t.Fatalf("OutDims = %d, %d, want 112, 112", h, w)
	}
	if h, w := (Conv2DSpec{}).OutDims(5, 6, 3, 1); h != 3 || w != 6 {
		t.Fatalf("default stride OutDims = %d, %d, want 3, 6", h, w)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("degenerate output should panic")
		}
	}()
	(Conv2DSpec{}).OutDims(2, 2, 5, 5)
}
