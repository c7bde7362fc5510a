package tensor

import (
	"math"
	"unsafe"
)

// This file is the int8 convolution, every geometry, in the FP32 one's
// formulation (gemm.go): channel-major, out[cout, npix] = W[cout, K] x
// im2col[K, npix], on the same cut, bands and scratch pool (convJob.run),
// with W's codes — the [Cout, Cin, KH, KW] int8 weights as they lie —
// read in place. Nothing is packed. An int8 dense layer is the 1x1 conv
// the graph runs it as.
//
// The input is quantized dynamically, per tensor, into the call's code
// plane, whole and once (absScale, quantizeRound), as int16. A pointwise
// conv reads that plane in place, so its plane is written as pair rows:
// channels 2i and 2i+1 of pixel p side by side as the int16 pair at
// codes[2i*plane + 2p], the pair the microkernel's VPMADDWD multiplies by
// a channel's weight pair. A K x K conv's plane is written as it lies,
// [Cin, H, W], and each band stages its im2col rows from it a K-block at
// a time with the FP32 conv's stage, then interleaves them into pair rows
// (qstage). The microkernel (qpointwiseQuads) accumulates a channel
// pair's int32 sums in the output's own memory (int32Rows), and after the
// last K-block the requantize (requantizeRow) turns them, in place, into
// float32: act(float32(acc)*scale + bias). Integer sums are exact in any
// order, so the bits depend neither on the blocking, the path nor the
// cut; the requantize keeps one expression per element.

// Conv2DQInto computes a 2-D convolution with int8 weights qw [Cout, Cin,
// KH, KW], read in place, into a preallocated float32 dst [Cout, Hout,
// Wout], overwriting every element: dynamic per-tensor symmetric
// quantization of in, then the channel-major product on the codes into
// int32 accumulators, then the fused requantize, bias and activation. The
// weight scales (per-tensor or per-channel) are qw's. The output does not
// depend on the cut.
func Conv2DQInto(dst, in *Tensor, qw *QTensor, bias []float32, spec Conv2DSpec, act Act, alpha float32) {
	spec = spec.check()
	geo := convGeometry(dst, in, qw.Shape, bias, spec)
	s := qscratchPool.Get().(*qscratch)
	sx := s.absScale(in.Data)
	plane, pairs := geo.h*geo.wd, pointwise(geo.kh, geo.kw, spec)
	s.codes = growSlice(s.codes, (geo.cin+gemmMR-1)&^(gemmMR-1)*plane)
	s.quantizeRound(s.codes, in.Data, plane, pairs, 1/sx)
	s.scales = growSlice(s.scales, geo.cout)
	for oc := range s.scales {
		s.scales[oc] = sx * qw.ScaleFor(oc)
	}
	convJob{out: dst.Data, acc: int32Rows(dst.Data), codes: s.codes, qw: qw.Data, scales: s.scales, geo: geo,
		spec: spec, bias: bias, epi: Epilogue{Act: act, Alpha: alpha}, kernel: (*convJob).qband}.run()
	qscratchPool.Put(s)
}

// int32Rows views an output span as the int32 accumulators an int8
// convolution sums into before requantizeRow turns each into the float32
// it stands for, in place: both types are four bytes and hold no
// pointers.
func int32Rows(f []float32) []int32 {
	return unsafe.Slice((*int32)(unsafe.Pointer(unsafe.SliceData(f))), len(f))
}

// qband is band for an int8 convolution: pixels [p0, p1) of channel pairs
// [c0, c1), a K-block at a time (as many whole quads of rows as fit
// gemmBlockFloats' bytes over the band as int16 codes, at most gemmKC):
// each pair's two accumulator rows are cleared before the first block,
// accumulated over every K-quad and requantized after the last. An odd
// last channel pairs with its own weight row, and the partner accumulates
// into the sink. A last block that is not a multiple of the quad reads
// the rows after it — the code plane's padding rows, or stale staged ones
// — against the zero weights qpointwiseQuads pads it with, and an integer
// times zero adds nothing.
func (j *convJob) qband(s *convScratch, c0, c1, p0, p1 int) {
	k, npix, nb := j.k, j.npix, p1-p0
	kblock := min(gemmKC, max(gemmMR, 2*gemmBlockFloats/nb&^(gemmMR-1)))
	for kc := 0; kc < k; kc += kblock {
		kb := min(k-kc, kblock)
		var x []int16
		stride := 2 * npix
		if j.staged {
			x, stride = j.qstage(s, kc, kb, p0, p1), 2*nb
		} else {
			x = j.codes[kc*npix+2*p0:]
		}
		for c := c0; c < c1; c++ {
			oc, pc := 2*c, min(2*c+1, j.geo.cout-1)
			o0, o1 := j.acc[oc*npix+p0:oc*npix+p1], int32Rows(s.sink[:nb])
			if pc != oc {
				o1 = j.acc[pc*npix+p0 : pc*npix+p1]
			}
			if kc == 0 {
				clear(o0)
				clear(o1)
			}
			qpointwiseQuads(o0, o1, x, stride, j.qw[oc*k+kc:][:kb], j.qw[pc*k+kc:][:kb])
			if kc+kb == k {
				j.requantize(oc, p0, p1)
				if pc != oc {
					j.requantize(pc, p0, p1)
				}
			}
		}
	}
}

// requantize turns channel oc's accumulators for pixels [p0, p1) into
// its outputs (requantizeRow).
func (j *convJob) requantize(oc, p0, p1 int) {
	var b float32
	if j.bias != nil {
		b = j.bias[oc]
	}
	requantizeRow(j.out[oc*j.npix+p0:oc*j.npix+p1], j.scales[oc], b, j.epi.Act, j.epi.Alpha)
}

// qstage stages im2col rows [kc, kc+kb) of pixels [p0, p1) from the
// code plane into s.rows, as stage does the FP32 input, and returns them
// as pair rows: rows 2i and 2i+1 interleaved into s.pairs[2i*nb:], pixel
// p's codes of the two at [2p, 2p+1]. A last odd row pairs with one of
// the zero rows stage writes up to the quad.
func (j *convJob) qstage(s *convScratch, kc, kb, p0, p1 int) []int16 {
	nb := p1 - p0
	stage(j, s.rows[:], j.codes, kc, kb, p0, p1)
	for r := 0; r < kb; r += 2 {
		interleave(s.pairs[r*nb:][:2*nb], s.rows[r*nb:][:nb], s.rows[(r+1)*nb:][:nb])
	}
	return s.pairs[:]
}

// interleave writes a[i] and b[i] to dst[2i] and dst[2i+1]: two code rows
// as one pair row. With AVX2, sixteen pixels at a time (interleaveAVX2).
func interleave(dst, a, b []int16) {
	n := len(a)
	dst, b = dst[:2*n], b[:n]
	v := 0
	if useAVX2 {
		if v = n &^ 15; v > 0 {
			interleaveAVX2(dst[:2*v], a[:v], b[:v])
		}
	}
	for i := v; i < n; i++ {
		dst[2*i], dst[2*i+1] = a[i], b[i]
	}
}

// qpointwiseQuads is the int8 microkernel, pointwiseQuads on codes: for
// each pair q of a channel pair's weight codes w0 and w1, o0[p] +=
// x0[p]*a0 + x1[p]*a1 over the run of pixels, a the pair of w0 and o1[p]
// the same with w1's, where (x0[p], x1[p]) is x[q*stride+2p:][:2], a pair
// row of the code plane or of a staged tile. The weights are padded with
// zeros up to a quad, so x must hold every pair row up to it. With AVX2
// the same sums run eight pixels to a register (qpointwiseQuadsAVX2);
// integer sums are exact, so the bits are the same.
func qpointwiseQuads(o0, o1 []int32, x []int16, stride int, w0, w1 []int8) {
	n, kb := len(o0), len(w0)
	o1, w1 = o1[:n], w1[:kb]
	if kb == 0 || n == 0 {
		return
	}
	if kb > gemmKC {
		panic("tensor: an int8 K-block is at most gemmKC deep")
	}
	_ = x[((kb+gemmMR-1)/gemmMR*2-1)*stride:][:2*n] // the last pair row the vector body reads
	if useAVX2 {
		qpointwiseQuadsAVX2(o0, o1, x, stride, w0, w1)
		return
	}
	for q := 0; 2*q < kb; q++ {
		r := x[q*stride:][:2*n]
		a0, b0 := int32(w0[2*q]), int32(w1[2*q])
		var a1, b1 int32
		if 2*q+1 < kb {
			a1, b1 = int32(w0[2*q+1]), int32(w1[2*q+1])
		}
		for p := range o0 {
			v0, v1 := int32(r[2*p]), int32(r[2*p+1])
			o0[p] += v0*a0 + v1*a1
			o1[p] += v0*b0 + v1*b1
		}
	}
}

// requantizeRow is the int8 epilogue, in place: seg holds a channel's
// int32 accumulators (int32Rows), and each becomes act(float32(acc)*scale
// + shift), the product rounded before the shift is added (float32(...)),
// so no architecture fuses the two. The clamping activations fuse into
// the loop; the rest take applyActInPlace's sweep after it. With AVX2 the
// conversion, the affine and a clamp run eight lanes at a time through
// the FP32 epilogue's body (epilogueAVX2), to the same bits.
func requantizeRow(seg []float32, scale, shift float32, act Act, alpha float32) {
	clamps, hi := act == ActReLU || act == ActReLU6, clampHi(act)
	if useAVX2 {
		mode := epiConvert | epiAffine
		if clamps {
			mode |= epiClamp
		}
		epilogueAVX2(seg, 0, scale, shift, math.Float32frombits(hi), mode)
	} else {
		acc := int32Rows(seg)
		for i, a := range acc {
			v := float32(float32(a)*scale) + shift
			if clamps {
				v = clamp(v, hi)
			}
			seg[i] = v
		}
	}
	if !clamps {
		applyActInPlace(seg, act, alpha)
	}
}
