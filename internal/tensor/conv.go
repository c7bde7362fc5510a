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
// input [Cin, H, W] against weights of logical shape w = [Cout, Cin, KH,
// KW], an optional bias, the checked spec and a preallocated dst of
// [Cout, Hout, Wout] — and returns the geometry. It formats a copy of w
// only on failure, so a caller's literal does not escape.
func convGeometry(dst, in *Tensor, w Shape, bias []float32, spec Conv2DSpec) convGeom {
	if len(in.Shape) != 3 || len(w) != 4 {
		panic(fmt.Sprintf("tensor: conv wants a rank-3 input and rank-4 weights, got %v and %v", in.Shape, w.Clone()))
	}
	g := convGeom{cin: in.Shape[0], h: in.Shape[1], wd: in.Shape[2], cout: w[0], kh: w[2], kw: w[3]}
	if g.cin != w[1] {
		panic(fmt.Sprintf("tensor: conv channel mismatch: input %v weights %v", in.Shape, w.Clone()))
	}
	if bias != nil && len(bias) != g.cout {
		panic("tensor: conv bias length mismatch")
	}
	g.hout, g.wout = spec.OutDims(g.h, g.wd, g.kh, g.kw)
	checkConvDst(dst, g.cout, g.hout, g.wout)
	return g
}

// checkConvDst validates a preallocated conv output buffer.
func checkConvDst(dst *Tensor, cout, hout, wout int) {
	if len(dst.Shape) != 3 || dst.Shape[0] != cout || dst.Shape[1] != hout || dst.Shape[2] != wout {
		panic(fmt.Sprintf("tensor: conv dst shape %v, want [%d %d %d]", dst.Shape, cout, hout, wout))
	}
}

// depthwiseRows computes the flattened output-row tiles [lo, hi), where
// tile u covers output row (ic = u/hout, oy = u%hout), and applies the
// epilogue to each channel's span of them right after computing it, while
// the span is still in cache. Layers that depthwise3x3Fits take the 3x3
// kernel: on an AVX2 host one depthwiseAVX2 call per channel span, else
// depthwiseRow a row at a time; everything else goes pixel by pixel
// through the generic tap loop.
func depthwiseRows(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, lo, hi int, epi Epilogue) {
	h, wd := in.Shape[1], in.Shape[2]
	kh, kw := w.Shape[1], w.Shape[2]
	padH, padW := spec.padHW()
	hout, wout := dst.Shape[1], dst.Shape[2]
	fast := depthwise3x3Fits(h, wd, kh, kw, spec.Stride, padH, padW)
	xlo, xhi := depthwiseInterior(wd, wout, spec.Stride, padW)
	for span := lo; span < hi; {
		ic := span / hout
		end := min((ic+1)*hout, hi)
		var b float32
		if bias != nil {
			b = bias[ic]
		}
		plane := in.Data[ic*h*wd : (ic+1)*h*wd]
		taps := w.Data[ic*kh*kw : (ic+1)*kh*kw]
		out := dst.Data[span*wout : end*wout]
		oy0, oy1 := span-ic*hout, end-ic*hout
		switch {
		case fast && useAVX2:
			depthwiseAVX2(out, plane, taps, b, oy0*spec.Stride-padH, wd, wout, spec.Stride, xlo, xhi)
		case fast:
			row := func(iy int) []float32 { return plane[iy*wd : (iy+1)*wd] }
			for oy := oy0; oy < oy1; oy++ {
				orow := out[(oy-oy0)*wout:][:wout]
				switch iy0 := oy*spec.Stride - padH; {
				case iy0 < 0: // the window's top row is padding
					depthwiseRow(orow, row(0), row(1), nil, taps[3:9], b, spec.Stride, padW)
				case iy0+3 > h: // its bottom row is
					depthwiseRow(orow, row(iy0), row(iy0+1), nil, taps[0:6], b, spec.Stride, padW)
				default:
					depthwiseRow(orow, row(iy0), row(iy0+1), row(iy0+2), taps, b, spec.Stride, padW)
				}
			}
		default:
			for oy := oy0; oy < oy1; oy++ {
				orow := out[(oy-oy0)*wout:][:wout]
				for ox := range orow {
					orow[ox] = depthwisePixel(plane, taps, b, h, wd, kh, kw, oy*spec.Stride-padH, ox*spec.Stride-padW)
				}
			}
		}
		applyEpilogueSpan(out, nil, ic, epi)
		span = end
	}
}

// depthwise3x3Fits reports whether a depthwise layer takes the 3x3 row
// kernel: a 3x3 kernel, stride <= 2, per-axis padding <= 1 and a plane of
// at least 3x3, so that at most one row and one column of any output's
// window fall in the padding.
func depthwise3x3Fits(h, wd, kh, kw, stride, padH, padW int) bool {
	return kh == 3 && kw == 3 && stride <= 2 && padH <= 1 && padW <= 1 && h >= 3 && wd >= 3
}

// depthwiseInterior returns the output columns [lo, hi) of a 3x3 layer
// that depthwise3x3Fits whose windows have all three columns in bounds:
// with padding <= 1 only column 0 and column wout-1 can miss one.
func depthwiseInterior(wd, wout, stride, padW int) (lo, hi int) {
	lo, hi = padW, wout
	if (hi-1)*stride-padW+3 > wd {
		hi--
	}
	return lo, hi
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
			sum += float32(plane[iy*wd+ix] * taps[ky*kw+kx])
		}
	}
	return sum
}

// depthwiseRow computes one output row of a 3x3 depthwise convolution
// from the input rows its windows have in bounds: r0..r2 against taps
// t[0:9], or, when r2 is nil because one window row is in the padding,
// r0 and r1 against t[0:6] (the kernel's rows 1-2 at the top edge, 0-1
// at the bottom). Every output runs depthwisePixel's chain — bias, then
// the taps it has in (ky, kx) order — unrolled with the weights in
// locals, every product rounded on its own (the explicit float32
// conversions), so no architecture fuses it into the add after it. At
// stride 1 the interior runs four outputs a step as four independent
// chains, at stride 2 one a step. The edge columns, whose window may have
// a column in the padding, take depthwiseEdge. It is the kernel where
// depthwiseAVX2 does not run, and the reference that body is fuzzed
// against.
func depthwiseRow(orow, r0, r1, r2, t []float32, b float32, stride, padW int) {
	wd := len(r0)
	lo, hi := depthwiseInterior(wd, len(orow), stride, padW)
	if lo > 0 { // column -1 is padding: kernel columns 1-2 on input 0-1
		orow[0] = depthwiseEdge(b, r0, r1, r2, t, 0, 1)
	}
	if hi < len(orow) { // column wd is: kernel columns 0-1 on input wd-2, wd-1
		orow[hi] = depthwiseEdge(b, r0, r1, r2, t, wd-2, 0)
	}
	i, x := lo, lo*stride-padW
	w0, w1, w2 := t[0], t[1], t[2]
	w3, w4, w5 := t[3], t[4], t[5]
	var w6, w7, w8 float32
	if r2 != nil {
		w6, w7, w8 = t[6], t[7], t[8]
	}
	if stride == 1 {
		for ; i+4 <= hi; i, x = i+4, x+4 {
			p, q := r0[x:x+6:x+6], r1[x:x+6:x+6]
			s0, s1, s2, s3 := b, b, b, b
			s0 += float32(p[0] * w0)
			s1 += float32(p[1] * w0)
			s2 += float32(p[2] * w0)
			s3 += float32(p[3] * w0)
			s0 += float32(p[1] * w1)
			s1 += float32(p[2] * w1)
			s2 += float32(p[3] * w1)
			s3 += float32(p[4] * w1)
			s0 += float32(p[2] * w2)
			s1 += float32(p[3] * w2)
			s2 += float32(p[4] * w2)
			s3 += float32(p[5] * w2)
			s0 += float32(q[0] * w3)
			s1 += float32(q[1] * w3)
			s2 += float32(q[2] * w3)
			s3 += float32(q[3] * w3)
			s0 += float32(q[1] * w4)
			s1 += float32(q[2] * w4)
			s2 += float32(q[3] * w4)
			s3 += float32(q[4] * w4)
			s0 += float32(q[2] * w5)
			s1 += float32(q[3] * w5)
			s2 += float32(q[4] * w5)
			s3 += float32(q[5] * w5)
			if r2 != nil {
				r := r2[x : x+6 : x+6]
				s0 += float32(r[0] * w6)
				s1 += float32(r[1] * w6)
				s2 += float32(r[2] * w6)
				s3 += float32(r[3] * w6)
				s0 += float32(r[1] * w7)
				s1 += float32(r[2] * w7)
				s2 += float32(r[3] * w7)
				s3 += float32(r[4] * w7)
				s0 += float32(r[2] * w8)
				s1 += float32(r[3] * w8)
				s2 += float32(r[4] * w8)
				s3 += float32(r[5] * w8)
			}
			o := orow[i : i+4 : i+4]
			o[0], o[1], o[2], o[3] = s0, s1, s2, s3
		}
	}
	for ; i < hi; i, x = i+1, x+stride {
		p, q := r0[x:x+3:x+3], r1[x:x+3:x+3]
		sum := b
		sum += float32(p[0] * w0)
		sum += float32(p[1] * w1)
		sum += float32(p[2] * w2)
		sum += float32(q[0] * w3)
		sum += float32(q[1] * w4)
		sum += float32(q[2] * w5)
		if r2 != nil {
			r := r2[x : x+3 : x+3]
			sum += float32(r[0] * w6)
			sum += float32(r[1] * w7)
			sum += float32(r[2] * w8)
		}
		orow[i] = sum
	}
}

// depthwiseEdge is the output of an edge column in a row of depthwiseRow:
// input columns c, c+1 of each in-bounds row against kernel columns k,
// k+1 — k = 1 on the left edge, whose column -1 is padding, 0 on a
// clipped right edge, whose column wd is. The padded taps are skipped,
// not multiplied by +0.0, which would turn a -0.0 sum into +0.0 and an
// Inf weight into NaN.
func depthwiseEdge(b float32, r0, r1, r2, t []float32, c, k int) float32 {
	t = t[k:]
	sum := b
	sum += float32(r0[c] * t[0])
	sum += float32(r0[c+1] * t[1])
	sum += float32(r1[c] * t[3])
	sum += float32(r1[c+1] * t[4])
	if r2 != nil {
		sum += float32(r2[c] * t[6])
		sum += float32(r2[c+1] * t[7])
	}
	return sum
}
