package tensor

import "fmt"

// Conv2DSpec describes a 2-D convolution. Input is [Cin, H, W], weights
// are [Cout, Cin, KH, KW] (rectangular kernels allowed), output is
// [Cout, Hout, Wout] with Hout = (H + 2*padH - KH)/Stride + 1 (and
// likewise for width). Pad applies to both axes unless Asym is set, in
// which case PadH/PadW apply per axis instead (Inception's 1x7/7x1
// factorized convolutions).
type Conv2DSpec struct {
	Stride int
	Pad    int
	// PadH/PadW are the per-axis padding, read only when Asym is set;
	// without Asym they are ignored, whatever their values, and Pad
	// applies to both axes.
	PadH, PadW int
	// Asym makes PadH/PadW authoritative (Pad is then ignored).
	Asym bool
}

func (s Conv2DSpec) check() Conv2DSpec {
	if s.Stride <= 0 {
		s.Stride = 1
	}
	if !s.Asym {
		s.PadH, s.PadW = s.Pad, s.Pad
	}
	if s.PadH < 0 || s.PadW < 0 {
		panic("tensor: negative conv padding")
	}
	return s
}

// padHW returns the effective per-axis padding.
func (s Conv2DSpec) padHW() (int, int) {
	s = s.check()
	return s.PadH, s.PadW
}

func (s Conv2DSpec) outDim(in, k, pad int) int {
	out := (in+2*pad-k)/s.Stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("tensor: conv output dim %d <= 0 (in=%d k=%d pad=%d stride=%d)",
			out, in, k, pad, s.Stride))
	}
	return out
}

// OutDim returns the spatial output dimension for input size in and kernel
// size k under the spec's symmetric padding (height axis for asymmetric
// specs; use OutDims for both).
func (s Conv2DSpec) OutDim(in, k int) int {
	s = s.check()
	return s.outDim(in, k, s.PadH)
}

// OutDims returns both output dimensions for an input of h x w and a
// kernel of kh x kw.
func (s Conv2DSpec) OutDims(h, w, kh, kw int) (int, int) {
	s = s.check()
	return s.outDim(h, kh, s.PadH), s.outDim(w, kw, s.PadW)
}

// convGeom is the geometry of a validated 2-D convolution.
type convGeom struct {
	cin, h, wd, cout, kh, kw, hout, wout int
}

// convGeometry is the one validator of a 2-D convolution's operands —
// input [Cin, H, W] against weights of shape w = [Cout, Cin, KH, KW]
// (a tensor's, or the one packed panels carry), an optional bias, the
// checked spec and, unless the caller allocates its own, a preallocated
// dst of [Cout, Hout, Wout] — and returns the geometry.
func convGeometry(dst, in *Tensor, w Shape, bias []float32, spec Conv2DSpec) convGeom {
	if len(in.Shape) != 3 || len(w) != 4 {
		panic(fmt.Sprintf("tensor: conv wants a rank-3 input and rank-4 weights, got %v and %v", in.Shape, w))
	}
	g := convGeom{cin: in.Shape[0], h: in.Shape[1], wd: in.Shape[2], cout: w[0], kh: w[2], kw: w[3]}
	if g.cin != w[1] {
		panic(fmt.Sprintf("tensor: conv channel mismatch: input %v weights %v", in.Shape, w))
	}
	if bias != nil && len(bias) != g.cout {
		panic("tensor: conv bias length mismatch")
	}
	g.hout, g.wout = spec.OutDims(g.h, g.wd, g.kh, g.kw)
	if dst != nil {
		checkConvDst(dst, g.cout, g.hout, g.wout)
	}
	return g
}

// checkConvDst validates a preallocated conv output buffer.
func checkConvDst(dst *Tensor, cout, hout, wout int) {
	if len(dst.Shape) != 3 || dst.Shape[0] != cout || dst.Shape[1] != hout || dst.Shape[2] != wout {
		panic(fmt.Sprintf("tensor: conv dst shape %v, want [%d %d %d]", dst.Shape, cout, hout, wout))
	}
}

// Conv2D computes a direct (naive loop-nest) 2-D convolution with bias
// on the calling goroutine. bias may be nil. This is the reference
// implementation; Conv2DPrepackedInto is the optimized path, and tests
// assert both agree.
func Conv2D(in, w *Tensor, bias []float32, spec Conv2DSpec) *Tensor {
	spec = spec.check()
	g := convGeometry(nil, in, w.Shape, bias, spec)
	out := New(g.cout, g.hout, g.wout)
	convRows(in, w, bias, spec, out, 0, g.cout*g.hout)
	return out
}

// convRows computes the flattened output-row tiles [lo, hi) into out,
// where tile index u covers output row (oc = u/hout, oy = u%hout).
func convRows(in, w *Tensor, bias []float32, spec Conv2DSpec, out *Tensor, lo, hi int) {
	cin, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	kh, kw := w.Shape[2], w.Shape[3]
	padH, padW := spec.padHW()
	hout, wout := out.Shape[1], out.Shape[2]
	for u := lo; u < hi; u++ {
		oc, oy := u/hout, u%hout
		var b float32
		if bias != nil {
			b = bias[oc]
		}
		for ox := 0; ox < wout; ox++ {
			sum := b
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
						sum += in.Data[(ic*h+iy)*wd+ix] *
							w.Data[((oc*cin+ic)*kh+ky)*kw+kx]
					}
				}
			}
			out.Data[(oc*hout+oy)*wout+ox] = sum
		}
	}
}

// depthwiseRows computes the flattened output-row tiles [lo, hi), where
// tile u covers output row (ic = u/hout, oy = u%hout). 3x3 kernels — the
// only depthwise size MobileNet-class models use — take depthwiseRow3x3
// on rows whose three input rows are all in bounds; everything else goes
// pixel by pixel through the generic tap loop.
func depthwiseRows(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, lo, hi int) {
	h, wd := in.Shape[1], in.Shape[2]
	kh, kw := w.Shape[1], w.Shape[2]
	padH, padW := spec.padHW()
	hout, wout := dst.Shape[1], dst.Shape[2]
	for u := lo; u < hi; u++ {
		ic, oy := u/hout, u%hout
		var b float32
		if bias != nil {
			b = bias[ic]
		}
		plane := in.Data[ic*h*wd : (ic+1)*h*wd]
		taps := w.Data[ic*kh*kw : (ic+1)*kh*kw]
		orow := dst.Data[u*wout : (u+1)*wout]
		iy0 := oy*spec.Stride - padH
		if kh == 3 && kw == 3 && iy0 >= 0 && iy0+3 <= h {
			depthwiseRow3x3(orow, plane, taps, b, h, wd, spec.Stride, iy0, padW)
			continue
		}
		for ox := range orow {
			orow[ox] = depthwisePixel(plane, taps, b, h, wd, kh, kw, iy0, ox*spec.Stride-padW)
		}
	}
}

// depthwisePixel computes one depthwise output element whose kernel
// window starts at input (iy0, ix0), skipping taps that fall in the
// padding. Its accumulation order — bias first, then taps in (ky, kx)
// order — is the one every depthwise fast path must reproduce bit for
// bit, and the tests use it as the reference.
func depthwisePixel(plane, taps []float32, b float32, h, wd, kh, kw, iy0, ix0 int) float32 {
	sum := b
	for ky := 0; ky < kh; ky++ {
		iy := iy0 + ky
		if iy < 0 || iy >= h {
			continue
		}
		for kx := 0; kx < kw; kx++ {
			ix := ix0 + kx
			if ix < 0 || ix >= wd {
				continue
			}
			sum += plane[iy*wd+ix] * taps[ky*kw+kx]
		}
	}
	return sum
}

// depthwiseRow3x3 computes one output row of a 3x3 depthwise convolution
// whose input rows iy0..iy0+2 are in bounds. Output columns whose window
// also lies inside the row run the unrolled nine-tap chain — no bounds
// test per tap, weights held in locals — in depthwisePixel's order; the
// left and right border columns go through depthwisePixel itself.
func depthwiseRow3x3(orow, plane, taps []float32, b float32, h, wd, stride, iy0, padW int) {
	// Interior columns satisfy 0 <= ox*stride-padW and ox*stride-padW+3 <= wd.
	oxLo := min((padW+stride-1)/stride, len(orow))
	oxHi := oxLo
	if wd+padW >= 3 {
		oxHi = max(oxLo, min((wd+padW-3)/stride+1, len(orow)))
	}
	for ox := 0; ox < oxLo; ox++ {
		orow[ox] = depthwisePixel(plane, taps, b, h, wd, 3, 3, iy0, ox*stride-padW)
	}
	for ox := oxHi; ox < len(orow); ox++ {
		orow[ox] = depthwisePixel(plane, taps, b, h, wd, 3, 3, iy0, ox*stride-padW)
	}
	if oxLo == oxHi {
		return
	}
	w0, w1, w2 := taps[0], taps[1], taps[2]
	w3, w4, w5 := taps[3], taps[4], taps[5]
	w6, w7, w8 := taps[6], taps[7], taps[8]
	out := orow[oxLo:oxHi]
	ix0 := oxLo*stride - padW
	span := (len(out)-1)*stride + 3
	r0 := plane[iy0*wd+ix0:][:span]
	r1 := plane[(iy0+1)*wd+ix0:][:span]
	r2 := plane[(iy0+2)*wd+ix0:][:span]
	x := 0
	for i := range out {
		sum := b
		sum += r0[x] * w0
		sum += r0[x+1] * w1
		sum += r0[x+2] * w2
		sum += r1[x] * w3
		sum += r1[x+1] * w4
		sum += r1[x+2] * w5
		sum += r2[x] * w6
		sum += r2[x+1] * w7
		sum += r2[x+2] * w8
		out[i] = sum
		x += stride
	}
}
