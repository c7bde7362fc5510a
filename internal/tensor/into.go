package tensor

import (
	"fmt"
	"math"
)

// This file holds the destination-passing variants of the pointwise and
// pooling kernels. Every *Into function overwrites all of dst — never
// read-modify-write — so destinations may be the executor's arena
// buffers, which carry stale values from earlier inferences.

// checkSameShape panics unless dst has the given shape. Only the failure
// formats a copy of shape, so a caller's literal stays on its stack.
func checkSameShape(op string, dst *Tensor, shape Shape) {
	if !dst.Shape.Equal(shape) {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want %v", op, dst.Shape, append(Shape(nil), shape...)))
	}
}

// AddInto computes dst = a + b elementwise; dst must match both shapes.
func AddInto(dst, a, b *Tensor) {
	if !a.Shape.Equal(b.Shape) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	checkSameShape("Add", dst, a.Shape)
	bd := b.Data
	for i, v := range a.Data {
		dst.Data[i] = v + bd[i]
	}
}

// ActivationInto writes act(src) into dst elementwise (dst may be src);
// alpha is the LeakyReLU negative slope. The expressions are the fused
// epilogue's, so a standalone activation node and an activation fused
// into its producer agree bit for bit.
func ActivationInto(dst, src *Tensor, act Act, alpha float32) {
	checkSameShape("activation", dst, src.Shape)
	copy(dst.Data, src.Data)
	applyActInPlace(dst.Data, act, alpha)
}

// ConcatChannelsInto concatenates [C?, H, W] tensors along channels into
// dst, which must have the summed channel count.
func ConcatChannelsInto(dst *Tensor, ts ...*Tensor) {
	if len(ts) == 0 {
		panic("tensor: ConcatChannels needs at least one input")
	}
	first := ts[0].Shape
	totalC := 0
	for _, t := range ts {
		// The rank test runs on ts[0] first, before any read of first[1:].
		if len(t.Shape) != 3 || t.Shape[1] != first[1] || t.Shape[2] != first[2] {
			panic(fmt.Sprintf("tensor: ConcatChannels wants rank-3 inputs of one spatial size, got %v", t.Shape))
		}
		totalC += t.Shape[0]
	}
	checkSameShape("ConcatChannels", dst, Shape{totalC, first[1], first[2]})
	off := 0
	for _, t := range ts {
		copy(dst.Data[off:], t.Data)
		off += len(t.Data)
	}
}

// BatchNormInto applies inference-mode per-channel affine normalization
// of src into dst, y = gamma * (x - mean) / sqrt(var + eps) + beta, with
// channels on the first axis (frozen statistics, as every framework
// executes BN at inference). Each product is rounded on its own (the
// explicit float32 conversions), so no architecture fuses it into the add
// after it and a BN absorbed into its producer's epilogue
// (applyEpilogueSpan) gives the same bits.
func BatchNormInto(dst, src *Tensor, gamma, beta, mean, variance []float32, eps float32) {
	c := src.Shape[0]
	if len(gamma) != c || len(beta) != c || len(mean) != c || len(variance) != c {
		panic("tensor: BatchNorm parameter length mismatch")
	}
	checkSameShape("BatchNorm", dst, src.Shape)
	plane := src.Shape.NumElems() / c
	for ic := 0; ic < c; ic++ {
		scale := gamma[ic] / float32(math.Sqrt(float64(variance[ic]+eps)))
		shift := beta[ic] - float32(mean[ic]*scale)
		in := src.Data[ic*plane : (ic+1)*plane]
		out := dst.Data[ic*plane : (ic+1)*plane]
		for i, v := range in {
			out[i] = float32(v*scale) + shift
		}
	}
}

// DenseInto computes dst = w*x + bias for a [Out, In] weight matrix,
// overwriting all of dst (length Out).
func DenseInto(dst []float32, w *Tensor, bias, x []float32) {
	if len(w.Shape) != 2 || w.Shape[1] != len(x) {
		panic(fmt.Sprintf("tensor: Dense shape mismatch: %v x vec(%d)", w.Shape, len(x)))
	}
	m, k := w.Shape[0], w.Shape[1]
	if len(dst) != m {
		panic("tensor: Dense dst length mismatch")
	}
	if bias != nil && len(bias) != m {
		panic("tensor: Dense bias length mismatch")
	}
	matVecInto(dst, w.Data, x, m, k)
	if bias != nil {
		for i := range dst {
			dst[i] += bias[i]
		}
	}
}

// SoftmaxInto writes the softmax of x into dst (same length), using the
// max-subtraction trick for numerical stability.
func SoftmaxInto(dst, x []float32) {
	if len(dst) != len(x) {
		panic("tensor: Softmax dst length mismatch")
	}
	if len(x) == 0 {
		return
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	var sum float64
	for i, v := range x {
		e := math.Exp(float64(v - m))
		dst[i] = float32(e)
		sum += e
	}
	inv := float32(1 / sum)
	for i := range dst {
		dst[i] *= inv
	}
}

// Pad2DInto zero-pads src by p on every spatial side into dst of shape
// [C, H+2p, W+2p], writing the border zeros explicitly.
func Pad2DInto(dst, src *Tensor, p int) {
	if p < 0 {
		panic("tensor: negative padding")
	}
	c, h, w := src.Shape[0], src.Shape[1], src.Shape[2]
	checkSameShape("Pad2D", dst, Shape{c, h + 2*p, w + 2*p})
	if p == 0 {
		copy(dst.Data, src.Data)
		return
	}
	clear(dst.Data)
	ow := w + 2*p
	for ic := 0; ic < c; ic++ {
		for iy := 0; iy < h; iy++ {
			srow := src.Data[(ic*h+iy)*w : (ic*h+iy)*w+w]
			dstOff := (ic*(h+2*p)+iy+p)*ow + p
			copy(dst.Data[dstOff:dstOff+w], srow)
		}
	}
}

// MaxPool2DInto applies max pooling of src into dst of shape
// [C, Hout, Wout]. Padded positions never win the max. It runs on the
// calling goroutine: the pass is memory-bound, and on the vector body a
// fork of it cost more than the second core saved (DESIGN §11).
func MaxPool2DInto(dst, src *Tensor, spec PoolSpec) {
	spec = spec.check()
	c, h, w := src.Shape[0], src.Shape[1], src.Shape[2]
	hout, wout := spec.OutDim(h), spec.OutDim(w)
	checkSameShape("MaxPool2D", dst, Shape{c, hout, wout})
	maxPoolPlanes(dst.Data, src.Data, h, w, hout, wout, spec)
}

// maxPoolPlanes pools every channel plane of src. Windows that lie
// wholly inside the plane — all of them when Pad is 0 — read pre-sliced
// rows with no per-tap bounds tests, in maxPoolWindow's tap order and
// with its `v > m` compare, so the result is the same bit for bit (a NaN
// never wins, the first of −0 and +0 does); only the select is
// branch-free — the running max is kept as bits, which amd64 updates
// with a conditional move (CMOVLHI) where `if v > m` mispredicted.
// Each conditional move still waits on the compare before it, so an
// output row's interior goes four windows at a time, each with its own
// running max and its own taps in the same order; the row's last
// (hi-lo) mod 4 windows go one at a time. Where MaxPoolVector holds, the
// interior goes to maxPoolRowAVX2 instead, a row a call, which keeps the
// same bits. Border windows go through maxPoolWindow.
func maxPoolPlanes(dst, src []float32, h, w, hout, wout int, spec PoolSpec) {
	k, stride, pad := spec.Kernel, spec.Stride, spec.Pad
	// Output rows [oyLo, oyHi) and columns [oxLo, oxHi) have their whole
	// window in bounds: o*stride-pad >= 0 and o*stride-pad+k <= size.
	oyLo, oyHi := interiorSpan(h, hout, k, stride, pad)
	oxLo, oxHi := interiorSpan(w, wout, k, stride, pad)
	vector := MaxPoolVector(h, w, spec)
	for ; len(src) > 0; src, dst = src[h*w:], dst[hout*wout:] {
		plane, out := src[:h*w], dst[:hout*wout]
		for oy := 0; oy < hout; oy++ {
			orow := out[oy*wout : (oy+1)*wout]
			lo, hi := oxLo, oxHi
			if oy < oyLo || oy >= oyHi {
				lo, hi = wout, wout // a clipped row has no interior
			}
			for ox := 0; ox < lo; ox++ {
				orow[ox] = maxPoolWindow(plane, h, w, oy, ox, spec)
			}
			top := (oy*stride - pad) * w
			ox := lo
			if vector && lo < hi {
				// Each row of the windows: the 2(hi-lo)+1 inputs they read.
				off, n := top+2*lo-pad, 2*(hi-lo)+1
				maxPoolRowAVX2(orow[lo:hi], plane[off:][:n], plane[off+w:][:n], plane[off+2*w:][:n])
				ox = hi
			}
			for ; ox+4 <= hi; ox += 4 {
				m0, m1, m2, m3 := math.Float32bits(negInf), math.Float32bits(negInf), math.Float32bits(negInf), math.Float32bits(negInf)
				for off := top + ox*stride - pad; off < top+k*w; off += w {
					row := plane[off : off+3*stride+k]
					for kx := 0; kx < k; kx++ {
						v0, v1, v2, v3 := row[kx], row[stride+kx], row[2*stride+kx], row[3*stride+kx]
						b0, b1, b2, b3 := math.Float32bits(v0), math.Float32bits(v1), math.Float32bits(v2), math.Float32bits(v3)
						if v0 > math.Float32frombits(m0) {
							m0 = b0
						}
						if v1 > math.Float32frombits(m1) {
							m1 = b1
						}
						if v2 > math.Float32frombits(m2) {
							m2 = b2
						}
						if v3 > math.Float32frombits(m3) {
							m3 = b3
						}
					}
				}
				orow[ox], orow[ox+1], orow[ox+2], orow[ox+3] = math.Float32frombits(m0), math.Float32frombits(m1), math.Float32frombits(m2), math.Float32frombits(m3)
			}
			for ; ox < hi; ox++ {
				mb := math.Float32bits(negInf)
				for off := top + ox*stride - pad; off < top+k*w; off += w {
					for _, v := range plane[off : off+k] {
						vb := math.Float32bits(v) // here: inside the if, go1.24 keeps the branch
						if v > math.Float32frombits(mb) {
							mb = vb
						}
					}
				}
				orow[ox] = math.Float32frombits(mb)
			}
			for ox := hi; ox < wout; ox++ {
				orow[ox] = maxPoolWindow(plane, h, w, oy, ox, spec)
			}
		}
	}
}

// interiorSpan returns the output index range [lo, hi) along one axis
// whose pooling windows need no clipping, 0 <= lo <= hi <= out; it is
// [out, out) when every window is clipped.
func interiorSpan(in, out, k, stride, pad int) (lo, hi int) {
	lo = (pad + stride - 1) / stride
	hi = min((in+pad-k)/stride+1, out)
	if in+pad < k || hi < lo {
		return out, out
	}
	return lo, hi
}

// maxPoolWindow is one output element of max pooling over a [h, w]
// plane, every tap bounds-tested: the border path of maxPoolPlanes and
// the reference its fast path is tested against.
func maxPoolWindow(plane []float32, h, w, oy, ox int, spec PoolSpec) float32 {
	m := negInf
	for ky := 0; ky < spec.Kernel; ky++ {
		iy := oy*spec.Stride + ky - spec.Pad
		if iy < 0 || iy >= h {
			continue
		}
		for kx := 0; kx < spec.Kernel; kx++ {
			ix := ox*spec.Stride + kx - spec.Pad
			if ix < 0 || ix >= w {
				continue
			}
			if v := plane[iy*w+ix]; v > m {
				m = v
			}
		}
	}
	return m
}

// AvgPool2DInto applies average pooling of src into dst of shape
// [C, Hout, Wout] (count_exclude_pad divisor). Windows with no in-bounds
// positions are written as zero explicitly.
func AvgPool2DInto(dst, src *Tensor, spec PoolSpec) {
	spec = spec.check()
	c, h, w := src.Shape[0], src.Shape[1], src.Shape[2]
	hout, wout := spec.OutDim(h), spec.OutDim(w)
	checkSameShape("AvgPool2D", dst, Shape{c, hout, wout})
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				var sum float32
				var n int
				for ky := 0; ky < spec.Kernel; ky++ {
					iy := oy*spec.Stride + ky - spec.Pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < spec.Kernel; kx++ {
						ix := ox*spec.Stride + kx - spec.Pad
						if ix < 0 || ix >= w {
							continue
						}
						sum += src.Data[(ic*h+iy)*w+ix]
						n++
					}
				}
				var v float32
				if n > 0 {
					v = sum / float32(n)
				}
				dst.Data[(ic*hout+oy)*wout+ox] = v
			}
		}
	}
}

// GlobalAvgPool2DInto writes per-channel means of a [C, H, W] src into
// dst (length C).
func GlobalAvgPool2DInto(dst []float32, src *Tensor) {
	if len(src.Shape) != 3 {
		panic(fmt.Sprintf("tensor: GlobalAvgPool2D wants a rank-3 src, got %v", src.Shape))
	}
	c, h, w := src.Shape[0], src.Shape[1], src.Shape[2]
	if len(dst) != c {
		panic("tensor: GlobalAvgPool2D dst length mismatch")
	}
	plane := h * w
	for ic := 0; ic < c; ic++ {
		var sum float32
		for _, v := range src.Data[ic*plane : (ic+1)*plane] {
			sum += v
		}
		dst[ic] = sum / float32(plane)
	}
}

// UpsampleNearest2DInto scales src spatially by integer factor into dst
// of shape [C, H*factor, W*factor] using nearest-neighbor replication.
func UpsampleNearest2DInto(dst, src *Tensor, factor int) {
	if factor < 1 {
		panic(fmt.Sprintf("tensor: upsample factor %d < 1", factor))
	}
	c, h, w := src.Shape[0], src.Shape[1], src.Shape[2]
	oh, ow := h*factor, w*factor
	checkSameShape("UpsampleNearest2D", dst, Shape{c, oh, ow})
	if factor == 1 {
		copy(dst.Data, src.Data)
		return
	}
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < oh; oy++ {
			srow := src.Data[(ic*h+oy/factor)*w : (ic*h+oy/factor+1)*w]
			drow := dst.Data[(ic*oh+oy)*ow : (ic*oh+oy+1)*ow]
			for ox := 0; ox < ow; ox++ {
				drow[ox] = srow[ox/factor]
			}
		}
	}
}

// ShuffleChannelsInto permutes src's channels across groups into dst
// (ShuffleNet): channel i moves to position (i%g)*(C/g) + i/g, which
// deals the groups' channels out in turn, so the next grouped
// convolution sees features from every group.
func ShuffleChannelsInto(dst, src *Tensor, groups int) {
	c := src.Shape[0]
	checkSameShape("ShuffleChannels", dst, src.Shape)
	if groups <= 1 {
		copy(dst.Data, src.Data)
		return
	}
	if c%groups != 0 {
		panic(fmt.Sprintf("tensor: shuffle groups %d do not divide channels %d", groups, c))
	}
	plane := src.Shape.NumElems() / c
	per := c / groups
	for i := 0; i < c; i++ {
		d := (i%groups)*per + i/groups
		copy(dst.Data[d*plane:(d+1)*plane], src.Data[i*plane:(i+1)*plane])
	}
}
