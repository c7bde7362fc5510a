// Package tensor implements the numerical substrate of the edgebench
// inference engine: dense tensors in NCHW layout and the convolution,
// matrix-multiplication, pooling, normalization, and activation kernels
// that CNN inference is built from.
//
// The package executes real math (it is not a mock): model correctness
// tests and engine micro-benchmarks run through these kernels. Storage is
// float32; reduced-precision datatypes (FP16, INT8) are emulated via
// explicit quantize/round-trip helpers in quant.go so framework
// optimization passes can measure their numerical effect.
package tensor

import (
	"fmt"
	"math/rand"
)

// Shape describes tensor dimensions, outermost first. CNN activations use
// [C, H, W] (single batch, the paper's edge-inference setting) and video
// tensors use [C, D, H, W].
type Shape []int

// NumElems returns the total number of elements, or 0 for an empty shape.
func (s Shape) NumElems() int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical dimensions.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape { return append(Shape(nil), s...) }

// String renders the shape as a bracketed dimension list.
func (s Shape) String() string { return fmt.Sprint([]int(s)) }

// Tensor is a dense float32 tensor with row-major layout.
type Tensor struct {
	Shape Shape
	Data  []float32
}

// New allocates a zero tensor of the given shape. Dimensions must be
// positive.
func New(shape ...int) *Tensor {
	s := Shape(shape)
	for _, d := range s {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", s))
		}
	}
	return &Tensor{Shape: s.Clone(), Data: make([]float32, s.NumElems())}
}

// FromData wraps data in a tensor of the given shape. The length of data
// must match the shape's element count.
func FromData(data []float32, shape ...int) *Tensor {
	s := Shape(shape)
	if len(data) != s.NumElems() {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elems)",
			len(data), s, s.NumElems()))
	}
	return &Tensor{Shape: s.Clone(), Data: data}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	out := &Tensor{Shape: t.Shape.Clone(), Data: make([]float32, len(t.Data))}
	copy(out.Data, t.Data)
	return out
}

// Fill sets every element to v and returns t for chaining.
//
// edgelint:seam tests across the module build constant inputs and
// weights with it.
func (t *Tensor) Fill(v float32) *Tensor {
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Randomize fills t with uniform values in [-scale, scale) drawn from r,
// and returns t. Used for synthetic weights and inputs (§VI-A fn.4: random
// weights are the standard performance-evaluation proxy).
func (t *Tensor) Randomize(r *rand.Rand, scale float32) *Tensor {
	for i := range t.Data {
		t.Data[i] = (r.Float32()*2 - 1) * scale
	}
	return t
}

// At returns the element at the given multi-dimensional index.
//
// edgelint:seam kernel tests read single output elements by index.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d != shape rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Reshape returns a view of t with a new shape of equal element count.
// The returned tensor shares t's backing data.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	s := Shape(shape)
	if s.NumElems() != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.Shape, s))
	}
	return &Tensor{Shape: s.Clone(), Data: t.Data}
}

// MaxAbs returns the largest absolute element value, or 0 for an empty
// tensor. Quantization uses it to pick symmetric scales.
func (t *Tensor) MaxAbs() float32 { return maxAbs(t.Data) }
