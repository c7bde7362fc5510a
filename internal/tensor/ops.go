package tensor

import (
	"fmt"
	"math"
)

// Add computes a + b elementwise into a new tensor (residual connections).
func Add(a, b *Tensor) *Tensor {
	if !a.Shape.Equal(b.Shape) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// ConcatChannels concatenates [C?, H, W] tensors along the channel axis
// (Inception branches, YOLO route layers). All inputs must share H and W.
func ConcatChannels(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatChannels needs at least one input")
	}
	h, w := ts[0].Shape[1], ts[0].Shape[2]
	totalC := 0
	for _, t := range ts {
		if len(t.Shape) != 3 || t.Shape[1] != h || t.Shape[2] != w {
			panic(fmt.Sprintf("tensor: ConcatChannels spatial mismatch: %v", t.Shape))
		}
		totalC += t.Shape[0]
	}
	out := New(totalC, h, w)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += len(t.Data)
	}
	return out
}

// BatchNorm applies per-channel affine normalization over [C, H, W] (or
// any tensor whose first axis is channels):
//
//	y = gamma * (x - mean) / sqrt(var + eps) + beta
//
// Inference-mode BN with frozen statistics, as every framework executes it.
func BatchNorm(t *Tensor, gamma, beta, mean, variance []float32, eps float32) *Tensor {
	c := t.Shape[0]
	if len(gamma) != c || len(beta) != c || len(mean) != c || len(variance) != c {
		panic("tensor: BatchNorm parameter length mismatch")
	}
	plane := t.Shape.NumElems() / c
	out := t.Clone()
	for ic := 0; ic < c; ic++ {
		scale := gamma[ic] / float32(math.Sqrt(float64(variance[ic]+eps)))
		shift := beta[ic] - mean[ic]*scale
		seg := out.Data[ic*plane : (ic+1)*plane]
		for i, v := range seg {
			seg[i] = v*scale + shift
		}
	}
	return out
}

// FoldBatchNorm folds BN parameters into convolution weights and bias,
// returning the fused weights/bias. This is the arithmetic behind the
// conv+BN kernel-fusion optimization (Table II "Fusion" row): after
// folding, the BN op disappears from the graph.
//
// w is [Cout, ...]; bias may be nil (treated as zeros).
func FoldBatchNorm(w *Tensor, bias, gamma, beta, mean, variance []float32, eps float32) (*Tensor, []float32) {
	cout := w.Shape[0]
	if len(gamma) != cout || len(beta) != cout || len(mean) != cout || len(variance) != cout {
		panic("tensor: FoldBatchNorm parameter length mismatch")
	}
	fw := w.Clone()
	fb := make([]float32, cout)
	per := len(w.Data) / cout
	for oc := 0; oc < cout; oc++ {
		scale := gamma[oc] / float32(math.Sqrt(float64(variance[oc]+eps)))
		seg := fw.Data[oc*per : (oc+1)*per]
		for i := range seg {
			seg[i] *= scale
		}
		var b float32
		if bias != nil {
			b = bias[oc]
		}
		fb[oc] = (b-mean[oc])*scale + beta[oc]
	}
	return fw, fb
}

// Dense computes w*x + bias for a [Out, In] weight matrix and a flattened
// input vector.
func Dense(w *Tensor, bias, x []float32) []float32 {
	out := MatVec(w, x)
	if bias != nil {
		if len(bias) != len(out) {
			panic("tensor: Dense bias length mismatch")
		}
		for i := range out {
			out[i] += bias[i]
		}
	}
	return out
}

// Softmax returns the softmax of x, computed with the max-subtraction
// trick for numerical stability.
func Softmax(x []float32) []float32 {
	if len(x) == 0 {
		return nil
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	out := make([]float32, len(x))
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - m))
		out[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// Pad2D zero-pads a [C, H, W] tensor by p on every spatial side.
func Pad2D(in *Tensor, p int) *Tensor {
	if p < 0 {
		panic("tensor: negative padding")
	}
	if p == 0 {
		return in.Clone()
	}
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	out := New(c, h+2*p, w+2*p)
	ow := w + 2*p
	for ic := 0; ic < c; ic++ {
		for iy := 0; iy < h; iy++ {
			src := in.Data[(ic*h+iy)*w : (ic*h+iy)*w+w]
			dstOff := (ic*(h+2*p)+iy+p)*ow + p
			copy(out.Data[dstOff:dstOff+w], src)
		}
	}
	return out
}
