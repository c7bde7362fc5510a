package refexec

import (
	"math"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// Tolerance is n's row of the package's tolerance table: the largest
// Error the engine's value of n may have against the oracle's when both
// evaluate n on the same operands. 0 means exact.
func Tolerance(n *graph.Node) float64 {
	w := n.WShape
	switch n.Kind {
	case graph.OpBatchNorm:
		return 8
	case graph.OpSoftmax:
		return 4
	case graph.OpConv2D:
		return float64(w[1] * w[2] * w[3])
	case graph.OpDepthwiseConv2D:
		return float64(w[1] * w[2])
	case graph.OpDense:
		return float64(w[1])
	case graph.OpAvgPool2D:
		return float64(n.Attrs.Kernel * n.Attrs.Kernel)
	case graph.OpGlobalAvgPool:
		in := n.Inputs[0].OutShape
		return float64(in[1] * in[2])
	case graph.OpLSTM:
		return float64(n.Inputs[0].OutShape[0] * w[1])
	}
	return 0
}

// Error is how far got is from want in the table's unit, u·max|want|
// with u = 2⁻²⁴: the largest elementwise difference divided by that.
// Equal bit patterns, and NaN against NaN, differ by nothing; a shape
// mismatch, a NaN against a number, or any difference from an all-zero
// want is +Inf.
func Error(got, want *tensor.Tensor) float64 {
	if !sameShape(got.Shape, want.Shape) {
		return math.Inf(1)
	}
	var diff, scale float64
	for i, w32 := range want.Data {
		g, w := float64(got.Data[i]), float64(w32)
		scale = math.Max(scale, math.Abs(w))
		switch {
		case math.Float32bits(got.Data[i]) == math.Float32bits(w32) || math.IsNaN(g) && math.IsNaN(w):
		case math.IsNaN(g) || math.IsNaN(w):
			return math.Inf(1)
		default:
			diff = math.Max(diff, math.Abs(g-w))
		}
	}
	switch {
	case diff == 0:
		return 0
	case scale == 0:
		return math.Inf(1)
	}
	return diff / (scale * 0x1p-24)
}
