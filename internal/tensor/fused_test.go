package tensor

import (
	"math"
	"testing"
)

// The fused FP32 kernels' contract is bitwise equivalence: a fused
// Conv→BN→act call must produce the exact float32 outputs of the
// separate kernels applied in sequence. These tests pin that contract
// kernel by kernel — any drift (reassociated affine, fused-multiply
// shortcuts, different activation expressions) fails on the first
// differing bit, which is what lets the O2 pattern-fusion pass claim
// bit-identical execution.

// fillPseudo fills data with a deterministic mixed-sign pattern that
// exercises both activation branches.
func fillPseudo(data []float32, seed int) {
	for i := range data {
		data[i] = float32((i*2654435761+seed)%97)/13 - 3.5
	}
}

// bnEpilogue precomputes the per-channel affine with the exact
// scale/shift expressions BatchNormInto uses (the same expressions the
// pattern-fusion pass uses when absorbing a BN node).
func bnEpilogue(c int, seed int) (gamma, beta, mean, variance []float32, eps float32, epi Epilogue) {
	gamma = make([]float32, c)
	beta = make([]float32, c)
	mean = make([]float32, c)
	variance = make([]float32, c)
	eps = 1e-5
	for ic := 0; ic < c; ic++ {
		gamma[ic] = 0.5 + float32((ic+seed)%7)/4
		beta[ic] = float32(ic%5)/3 - 0.6
		mean[ic] = float32((ic*3+seed)%9)/5 - 0.8
		variance[ic] = 0.3 + float32(ic%4)/6
	}
	scale := make([]float32, c)
	shift := make([]float32, c)
	for ic := 0; ic < c; ic++ {
		s := gamma[ic] / float32(math.Sqrt(float64(variance[ic]+eps)))
		scale[ic] = s
		shift[ic] = beta[ic] - float32(mean[ic]*s)
	}
	epi = Epilogue{Scale: scale, Shift: shift}
	return
}

// assertBitEqual fails unless got has want's shape and want's bits,
// NaNs matching any NaN (bitsOrNaN).
func assertBitEqual(t *testing.T, got, want *Tensor, what string) {
	t.Helper()
	if !got.Shape.Equal(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if !bitsOrNaN(got.Data[i:i+1], want.Data[i:i+1]) {
			t.Fatalf("%s: out[%d] = %v (%#08x), want %v (%#08x) (bitwise mismatch)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

func TestConv2DFusedBitEquivalence(t *testing.T) {
	in := New(3, 9, 9)
	w := New(6, 3, 3, 3)
	fillPseudo(in.Data, 1)
	fillPseudo(w.Data, 2)
	bias := make([]float32, 6)
	fillPseudo(bias, 3)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	gamma, beta, mean, variance, eps, epi := bnEpilogue(6, 4)

	for _, act := range []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh} {
		// Unfused chain: conv kernel, then the standalone BN kernel, then
		// the standalone activation kernel.
		want := New(6, 9, 9)
		Conv2DInto(want, in, w, bias, spec, Epilogue{})
		BatchNormInto(want, want, gamma, beta, mean, variance, eps)
		applySeparateAct(want, act, 0.1)

		e := epi
		e.Act = act
		e.Alpha = 0.1
		got := New(6, 9, 9)
		Conv2DInto(got, in, w, bias, spec, e)
		assertBitEqual(t, got, want, "Conv2DInto/"+actName(act))
	}
}

func TestConv2DGEMMFusedBitEquivalence(t *testing.T) {
	in := New(4, 8, 8)
	w := New(5, 4, 3, 3)
	fillPseudo(in.Data, 5)
	fillPseudo(w.Data, 6)
	bias := make([]float32, 5)
	fillPseudo(bias, 7)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	gamma, beta, mean, variance, eps, epi := bnEpilogue(5, 8)

	want := New(5, 8, 8)
	Conv2DInto(want, in, w, bias, spec, Epilogue{})
	BatchNormInto(want, want, gamma, beta, mean, variance, eps)
	ActivationInto(want, want, ActReLU, 0)

	e := epi
	e.Act = ActReLU
	got := New(5, 8, 8)
	Conv2DInto(got, in, w, bias, spec, e)
	assertBitEqual(t, got, want, "Conv2DInto")

	// Second call, through the recycled package scratch, must be identical too.
	got2 := New(5, 8, 8)
	Conv2DInto(got2, in, w, bias, spec, e)
	assertBitEqual(t, got2, want, "Conv2DInto (pooled)")
}

func TestDepthwiseConv2DFusedBitEquivalence(t *testing.T) {
	in := New(4, 7, 7)
	w := New(4, 3, 3) // depthwise weights are [C, KH, KW]
	fillPseudo(in.Data, 9)
	fillPseudo(w.Data, 10)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	gamma, beta, mean, variance, eps, epi := bnEpilogue(4, 11)

	want := New(4, 7, 7)
	DepthwiseConv2DFusedInto(want, in, w, nil, spec, Epilogue{})
	BatchNormInto(want, want, gamma, beta, mean, variance, eps)
	ActivationInto(want, want, ActReLU6, 0)

	e := epi
	e.Act = ActReLU6
	got := New(4, 7, 7)
	DepthwiseConv2DFusedInto(got, in, w, nil, spec, e)
	assertBitEqual(t, got, want, "DepthwiseConv2DFusedInto")
}

func TestDenseFusedBitEquivalence(t *testing.T) {
	w := New(6, 10)
	x := make([]float32, 10)
	bias := make([]float32, 6)
	fillPseudo(w.Data, 12)
	fillPseudo(x, 13)
	fillPseudo(bias, 14)
	gamma, beta, mean, variance, eps, epi := bnEpilogue(6, 15)

	// A rank-1 output's "channels" are its elements: the affine runs per
	// output neuron, exactly like a BN node after a Dense node.
	want := New(6)
	DenseInto(want.Data, w, bias, x)
	BatchNormInto(want, want, gamma, beta, mean, variance, eps)
	ActivationInto(want, want, ActSigmoid, 0)

	e := epi
	e.Act = ActSigmoid
	got := New(6)
	DenseInto(got.Data, w, bias, x)
	e.ApplyInto(got)
	assertBitEqual(t, got, want, "DenseInto + ApplyInto")
}

func TestAddFusedBitEquivalence(t *testing.T) {
	a, b := New(3, 5, 5), New(3, 5, 5)
	fillPseudo(a.Data, 16)
	fillPseudo(b.Data, 17)

	want := New(3, 5, 5)
	AddInto(want, a, b)
	ActivationInto(want, want, ActLeakyReLU, 0.2)

	got := New(3, 5, 5)
	AddInto(got, a, b)
	Epilogue{Act: ActLeakyReLU, Alpha: 0.2}.ApplyInto(got)
	assertBitEqual(t, got, want, "AddInto + ApplyInto")
}

func TestEpilogueEmptyIsNoOp(t *testing.T) {
	var e Epilogue
	d := New(2, 3)
	fillPseudo(d.Data, 18)
	ref := d.Clone()
	e.ApplyInto(d)
	assertBitEqual(t, d, ref, "empty ApplyInto")
}

func TestEpilogueRejectsMismatchedChannels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for channels not dividing elements")
		}
	}()
	e := Epilogue{Scale: make([]float32, 4), Shift: make([]float32, 4)}
	e.ApplyInto(New(3, 5)) // 15 elements, 4 channels
}

// applySeparateAct applies the standalone activation kernel matching
// act — the unfused reference path.
func applySeparateAct(tns *Tensor, act Act, alpha float32) {
	ActivationInto(tns, tns, act, alpha)
}

func actName(a Act) string {
	switch a {
	case ActReLU:
		return "relu"
	case ActReLU6:
		return "relu6"
	case ActLeakyReLU:
		return "leaky"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	}
	return "none"
}

// TestFoldedEpilogueParallelPath pins bit-equivalence of the fused
// kernels above the parallel MAC threshold, where the folded epilogue
// runs inside worker-pool shards: folded output must equal the explicit
// compute-then-ApplyInto two-sweep sequence exactly.
func TestFoldedEpilogueParallelPath(t *testing.T) {
	t.Run("conv", func(t *testing.T) {
		in := New(16, 32, 32)
		w := New(24, 16, 3, 3)
		fillPseudo(in.Data, 5)
		fillPseudo(w.Data, 6)
		bias := make([]float32, 24)
		fillPseudo(bias, 7)
		spec := Conv2DSpec{Stride: 1, Pad: 1}
		if w.Shape.NumElems()*32*32 < ParallelThresholdMACs() {
			t.Fatal("test layer too small to hit the parallel path")
		}
		_, _, _, _, _, epi := bnEpilogue(24, 8)
		epi.Act = ActReLU6
		want := New(24, 32, 32)
		Conv2DInto(want, in, w, bias, spec, Epilogue{})
		epi.ApplyInto(want)
		got := New(24, 32, 32)
		Conv2DInto(got, in, w, bias, spec, epi)
		assertBitEqual(t, got, want, "parallel fused conv")
	})
	t.Run("depthwise", func(t *testing.T) {
		c, hw := 64, 160
		in := New(c, hw, hw)
		w := New(c, 3, 3)
		fillPseudo(in.Data, 9)
		fillPseudo(w.Data, 10)
		bias := make([]float32, c)
		fillPseudo(bias, 11)
		spec := Conv2DSpec{Stride: 1, Pad: 1}
		if c*hw*3*3*hw < ParallelThresholdMACs() {
			t.Fatal("test layer too small to hit the parallel path")
		}
		_, _, _, _, _, epi := bnEpilogue(c, 12)
		epi.Act = ActLeakyReLU
		epi.Alpha = 0.1
		want := New(c, hw, hw)
		DepthwiseConv2DFusedInto(want, in, w, bias, spec, Epilogue{})
		epi.ApplyInto(want)
		got := New(c, hw, hw)
		DepthwiseConv2DFusedInto(got, in, w, bias, spec, epi)
		assertBitEqual(t, got, want, "parallel folded depthwise")
	})
}

// TestFoldedEpilogueChannelMismatchPanics pins the guard the row-folded
// paths depend on: an affine epilogue sized differently from the output
// channel count must panic, not silently mis-index.
func TestFoldedEpilogueChannelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched epilogue channels should panic")
		}
	}()
	in := New(2, 5, 5)
	w := New(3, 2, 3, 3)
	dst := New(3, 5, 5)
	Conv2DInto(dst, in, w, nil, Conv2DSpec{Stride: 1, Pad: 1},
		Epilogue{Scale: make([]float32, 2), Shift: make([]float32, 2)})
}
