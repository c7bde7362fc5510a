package tensor

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"edgebench/internal/stats"
)

func TestActivations(t *testing.T) {
	a := FromData([]float32{-2, 0, 3, 8}, 4)
	apply := func(src *Tensor, act Act) []float32 {
		dst := New(src.Shape...)
		ActivationInto(dst, src, act, 0.1)
		return dst.Data
	}
	if got := apply(a, ActReLU); got[0] != 0 || got[2] != 3 || got[3] != 8 {
		t.Fatalf("ReLU = %v", got)
	}
	if got := apply(a, ActReLU6); got[0] != 0 || got[2] != 3 || got[3] != 6 {
		t.Fatalf("ReLU6 = %v", got)
	}
	if got := apply(a, ActLeakyReLU); !almostEq32(got[0], -0.2, 1e-6) || got[2] != 3 {
		t.Fatalf("LeakyReLU = %v", got)
	}
	if got := apply(FromData([]float32{0}, 1), ActSigmoid)[0]; !almostEq32(got, 0.5, 1e-6) {
		t.Fatalf("Sigmoid(0) = %v", got)
	}
	if got := apply(FromData([]float32{0}, 1), ActTanh)[0]; got != 0 {
		t.Fatalf("Tanh(0) = %v", got)
	}
}

func TestAdd(t *testing.T) {
	a := FromData([]float32{1, 2}, 2)
	b := FromData([]float32{10, 20}, 2)
	c := into(func(d *Tensor) { AddInto(d, a, b) }, 2)
	if c.Data[0] != 11 || c.Data[1] != 22 || a.Data[0] != 1 {
		t.Fatalf("Add = %v (a=%v)", c.Data, a.Data)
	}
	wantPanic(t, "Add shape mismatch", func() { AddInto(New(2), a, New(3)) })
}

// wantPanic fails unless f panics with a message containing msg: the
// kernel's own, not a runtime index error.
func wantPanic(t *testing.T, msg string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if s, ok := r.(string); !ok || !strings.Contains(s, msg) {
			t.Errorf("panic %v, want one containing %q", r, msg)
		}
	}()
	f()
}

func TestConcatChannels(t *testing.T) {
	a := New(1, 2, 2).Fill(1)
	b := New(3, 2, 2).Fill(2)
	c := into(func(d *Tensor) { ConcatChannelsInto(d, a, b) }, 4, 2, 2)
	if c.Data[0] != 1 || c.Data[4] != 2 {
		t.Fatal("concat data order wrong")
	}
	wantPanic(t, "ConcatChannels wants rank-3", func() { ConcatChannelsInto(New(2, 2, 2), a, New(1, 3, 3)) })
	wantPanic(t, "ConcatChannels wants rank-3", func() { ConcatChannelsInto(New(5), New(4), a) })
	wantPanic(t, "GlobalAvgPool2D wants a rank-3", func() { GlobalAvgPool2DInto(make([]float32, 4), New(4)) })
	wantPanic(t, "ConcatChannels dst shape", func() { ConcatChannelsInto(New(3, 2, 2), a, b) })
}

func TestBatchNorm(t *testing.T) {
	in := FromData([]float32{1, 2, 3, 4}, 1, 2, 2)
	gamma := []float32{2}
	beta := []float32{1}
	mean := []float32{2.5}
	variance := []float32{1.25}
	out := into(func(d *Tensor) { BatchNormInto(d, in, gamma, beta, mean, variance, 0) }, 1, 2, 2)
	// (x-2.5)/sqrt(1.25)*2 + 1
	want0 := float32((1-2.5)/math.Sqrt(1.25)*2 + 1)
	if !almostEq32(out.Data[0], want0, 1e-5) {
		t.Fatalf("BN[0] = %v, want %v", out.Data[0], want0)
	}
	if in.Data[0] != 1 {
		t.Fatal("BatchNorm should not mutate input")
	}
}

// Property: conv followed by BN equals conv with folded BN weights.
func TestFoldBatchNormEquivalence(t *testing.T) {
	r := stats.NewRNG(11)
	f := func(seed int64) bool {
		cin, cout := 1+int(seed&1), 1+int(seed>>1&3)
		in := New(cin, 6, 6).Randomize(r, 1)
		w := New(cout, cin, 3, 3).Randomize(r, 1)
		bias := make([]float32, cout)
		gamma := make([]float32, cout)
		beta := make([]float32, cout)
		mean := make([]float32, cout)
		variance := make([]float32, cout)
		for i := 0; i < cout; i++ {
			bias[i] = r.Float32()
			gamma[i] = r.Float32() + 0.5
			beta[i] = r.Float32()
			mean[i] = r.Float32()
			variance[i] = r.Float32() + 0.1
		}
		spec := Conv2DSpec{Stride: 1, Pad: 1}
		ref := refConvBlocked(in, w, bias, spec, Epilogue{})
		BatchNormInto(ref, ref, gamma, beta, mean, variance, 1e-5)
		fw, fb := FoldBatchNorm(w, bias, gamma, beta, mean, variance, 1e-5)
		fused := refConvBlocked(in, fw, fb, spec, Epilogue{})
		for i := range ref.Data {
			if !almostEq32(ref.Data[i], fused.Data[i], 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDense(t *testing.T) {
	w := FromData([]float32{1, 2, 3, 4}, 2, 2)
	out := make([]float32, 2)
	DenseInto(out, w, []float32{10, 20}, []float32{1, 1})
	if out[0] != 13 || out[1] != 27 {
		t.Fatalf("Dense = %v", out)
	}
	DenseInto(out, w, nil, []float32{1, 0})
	if out[0] != 1 || out[1] != 3 {
		t.Fatalf("Dense no-bias = %v", out)
	}
}

func TestSoftmax(t *testing.T) {
	out := make([]float32, 4)
	SoftmaxInto(out, []float32{1, 1, 1, 1})
	for _, v := range out {
		if !almostEq32(v, 0.25, 1e-6) {
			t.Fatalf("uniform softmax = %v", out)
		}
	}
	// Stability with large logits.
	SoftmaxInto(out[:2], []float32{1000, 1000})
	if !almostEq32(out[0], 0.5, 1e-6) {
		t.Fatalf("large-logit softmax = %v", out)
	}
	SoftmaxInto(nil, nil) // empty input: nothing to write, no panic
}

func TestSoftmaxSumsToOneProperty(t *testing.T) {
	f := func(raw []float32) bool {
		xs := raw[:0:0]
		for _, v := range raw {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		out := make([]float32, len(xs))
		SoftmaxInto(out, xs)
		var sum float64
		for _, v := range out {
			if v < 0 {
				return false
			}
			sum += float64(v)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPad2D(t *testing.T) {
	in := FromData([]float32{1, 2, 3, 4}, 1, 2, 2)
	out := into(func(d *Tensor) { Pad2DInto(d, in, 1) }, 1, 4, 4)
	if out.At(0, 0, 0) != 0 || out.At(0, 1, 1) != 1 || out.At(0, 2, 2) != 4 {
		t.Fatal("padding layout wrong")
	}
	same := into(func(d *Tensor) { Pad2DInto(d, in, 0) }, 1, 2, 2)
	same.Data[0] = 9
	if in.Data[0] != 1 || same.Data[3] != 4 {
		t.Fatal("Pad2D(0) should copy")
	}
}

func TestMaxPool2D(t *testing.T) {
	in := FromData([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	out := into(func(d *Tensor) { MaxPool2DInto(d, in, PoolSpec{Kernel: 2, Stride: 1}) }, 1, 2, 2)
	want := []float32{5, 6, 8, 9}
	for i, v := range want {
		if out.Data[i] != v {
			t.Fatalf("MaxPool[%d] = %v, want %v", i, out.Data[i], v)
		}
	}
	// Negative inputs with padding: pad cells must not win.
	neg := New(1, 2, 2).Fill(-3)
	p := into(func(d *Tensor) { MaxPool2DInto(d, neg, PoolSpec{Kernel: 2, Stride: 2, Pad: 1}) }, 1, 2, 2)
	for _, v := range p.Data {
		if v != -3 {
			t.Fatalf("padded max pooled = %v, want -3", v)
		}
	}
}

func TestAvgPool2D(t *testing.T) {
	in := FromData([]float32{1, 2, 3, 4}, 1, 2, 2)
	out := into(func(d *Tensor) { AvgPool2DInto(d, in, PoolSpec{Kernel: 2, Stride: 2}) }, 1, 1, 1)
	if out.Data[0] != 2.5 {
		t.Fatalf("AvgPool = %v, want 2.5", out.Data[0])
	}
	// Padding excluded from divisor.
	p := into(func(d *Tensor) { AvgPool2DInto(d, in, PoolSpec{Kernel: 2, Stride: 2, Pad: 1}) }, 1, 2, 2)
	if p.At(0, 0, 0) != 1 {
		t.Fatalf("padded avg = %v, want 1 (single cell)", p.At(0, 0, 0))
	}
}

func TestGlobalAvgPool2D(t *testing.T) {
	in := New(2, 2, 2)
	for i := 0; i < 4; i++ {
		in.Data[i] = 2
		in.Data[4+i] = 4
	}
	got := make([]float32, 2)
	GlobalAvgPool2DInto(got, in)
	if got[0] != 2 || got[1] != 4 {
		t.Fatalf("GAP = %v", got)
	}
}

func TestPoolSpecChecks(t *testing.T) {
	if (PoolSpec{Kernel: 3}).OutDim(9) != 3 {
		t.Fatal("default stride should equal kernel")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero kernel should panic")
		}
	}()
	MaxPool2DInto(New(1, 2, 2), New(1, 2, 2), PoolSpec{})
}
