package tensor

import "math"

const negInf = float32(-math.MaxFloat32)

// PoolSpec describes 2-D pooling over [C, H, W] tensors.
type PoolSpec struct {
	Kernel int
	Stride int
	Pad    int
}

func (s PoolSpec) check() PoolSpec {
	if s.Kernel <= 0 {
		panic("tensor: pooling kernel must be positive")
	}
	if s.Stride <= 0 {
		s.Stride = s.Kernel
	}
	if s.Pad < 0 {
		panic("tensor: negative pooling padding")
	}
	return s
}

// OutDim returns the pooled output size for input size in.
func (s PoolSpec) OutDim(in int) int {
	s = s.check()
	out := (in+2*s.Pad-s.Kernel)/s.Stride + 1
	if out <= 0 {
		panic("tensor: pooling output dim <= 0")
	}
	return out
}
