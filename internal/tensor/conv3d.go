package tensor

import "fmt"

// Conv3DSpec describes a 3-D convolution over [C, D, H, W] video tensors
// (the C3D model's building block). A single stride/pad applies to all
// three spatial-temporal dimensions, matching C3D's homogeneous 3x3x3
// architecture.
type Conv3DSpec struct {
	Stride int
	Pad    int
}

func (s Conv3DSpec) check() Conv3DSpec {
	if s.Stride <= 0 {
		s.Stride = 1
	}
	if s.Pad < 0 {
		panic("tensor: negative conv3d padding")
	}
	return s
}

// OutDim returns the output size for an input dimension of size in with
// kernel size k.
func (s Conv3DSpec) OutDim(in, k int) int {
	s = s.check()
	out := (in+2*s.Pad-k)/s.Stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("tensor: conv3d output dim %d <= 0", out))
	}
	return out
}

// Conv3D computes a direct 3-D convolution. Input is [Cin, D, H, W],
// weights are [Cout, Cin, KD, KH, KW]; bias may be nil.
func Conv3D(in, w *Tensor, bias []float32, spec Conv3DSpec) *Tensor {
	spec = spec.check()
	cin, d, h, wd := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	cout, wcin, kd, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2], w.Shape[3], w.Shape[4]
	if cin != wcin {
		panic(fmt.Sprintf("tensor: Conv3D channel mismatch: %v vs %v", in.Shape, w.Shape))
	}
	if bias != nil && len(bias) != cout {
		panic("tensor: Conv3D bias length mismatch")
	}
	dout := spec.OutDim(d, kd)
	hout := spec.OutDim(h, kh)
	wout := spec.OutDim(wd, kw)
	out := New(cout, dout, hout, wout)
	for oc := 0; oc < cout; oc++ {
		var b float32
		if bias != nil {
			b = bias[oc]
		}
		for od := 0; od < dout; od++ {
			for oy := 0; oy < hout; oy++ {
				for ox := 0; ox < wout; ox++ {
					sum := b
					for ic := 0; ic < cin; ic++ {
						for kz := 0; kz < kd; kz++ {
							iz := od*spec.Stride + kz - spec.Pad
							if iz < 0 || iz >= d {
								continue
							}
							for ky := 0; ky < kh; ky++ {
								iy := oy*spec.Stride + ky - spec.Pad
								if iy < 0 || iy >= h {
									continue
								}
								for kx := 0; kx < kw; kx++ {
									ix := ox*spec.Stride + kx - spec.Pad
									if ix < 0 || ix >= wd {
										continue
									}
									sum += in.Data[((ic*d+iz)*h+iy)*wd+ix] *
										w.Data[(((oc*cin+ic)*kd+kz)*kh+ky)*kw+kx]
								}
							}
						}
					}
					out.Data[((oc*dout+od)*hout+oy)*wout+ox] = sum
				}
			}
		}
	}
	return out
}

// Pool3DSpec describes 3-D max pooling with independent temporal and
// spatial kernels/strides and optional spatial padding — C3D's pool1 is
// (1,2,2) while its deeper pools are (2,2,2), and pool5 uses spatial
// padding to keep a 4x4 map.
type Pool3DSpec struct {
	KernelD, Kernel int
	StrideD, Stride int
	PadSpatial      int
}

func (s Pool3DSpec) check() Pool3DSpec {
	if s.Kernel <= 0 || s.KernelD <= 0 {
		panic("tensor: pool3d kernels must be positive")
	}
	if s.Stride <= 0 {
		s.Stride = s.Kernel
	}
	if s.StrideD <= 0 {
		s.StrideD = s.KernelD
	}
	if s.PadSpatial < 0 {
		panic("tensor: negative pool3d padding")
	}
	return s
}

// OutDims returns the pooled [D, H, W] dimensions.
func (s Pool3DSpec) OutDims(d, h, w int) (int, int, int) {
	s = s.check()
	od := (d-s.KernelD)/s.StrideD + 1
	oh := (h+2*s.PadSpatial-s.Kernel)/s.Stride + 1
	ow := (w+2*s.PadSpatial-s.Kernel)/s.Stride + 1
	if od <= 0 || oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: pool3d output %dx%dx%d <= 0", od, oh, ow))
	}
	return od, oh, ow
}

// MaxPool3DSpec applies asymmetric 3-D max pooling over [C, D, H, W].
// Padded spatial positions never win the max.
func MaxPool3DSpec(in *Tensor, spec Pool3DSpec) *Tensor {
	spec = spec.check()
	c, d, h, w := in.Shape[0], in.Shape[1], in.Shape[2], in.Shape[3]
	od, oh, ow := spec.OutDims(d, h, w)
	out := New(c, od, oh, ow)
	for ic := 0; ic < c; ic++ {
		for z := 0; z < od; z++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					m := negInf
					for kz := 0; kz < spec.KernelD; kz++ {
						iz := z*spec.StrideD + kz
						if iz >= d {
							continue
						}
						for ky := 0; ky < spec.Kernel; ky++ {
							iy := oy*spec.Stride + ky - spec.PadSpatial
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < spec.Kernel; kx++ {
								ix := ox*spec.Stride + kx - spec.PadSpatial
								if ix < 0 || ix >= w {
									continue
								}
								if v := in.Data[((ic*d+iz)*h+iy)*w+ix]; v > m {
									m = v
								}
							}
						}
					}
					out.Data[((ic*od+z)*oh+oy)*ow+ox] = m
				}
			}
		}
	}
	return out
}
