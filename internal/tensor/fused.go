package tensor

import (
	"fmt"
	"math"
)

// This file is the FP32 twin of the int8 epilogue in qconv.go: fused
// kernels that run a compute op's main loop and then apply an absorbed
// batch-norm (per-channel affine) and activation in the output buffer,
// so a Conv→BN→ReLU chain is one kernel call with no intermediate
// tensors. Bit-exactness contract: the epilogue performs the exact
// per-element operation sequence of the unfused node chain —
// (x [+bias]) then (x*scale + shift) then act(x) — with scale/shift
// precomputed by the same formula BatchNormInto uses, so fused and
// unfused execution produce bitwise-identical float32 outputs.

// Epilogue describes the fused post-processing a kernel applies to its
// output: an optional per-channel affine (an absorbed batch-norm, with
// scale = gamma/sqrt(var+eps) and shift = beta - mean*scale) followed
// by an optional activation. The zero value is a no-op.
type Epilogue struct {
	// Scale/Shift are per-output-channel affine terms; nil means no
	// absorbed batch-norm. Both must have equal length.
	Scale, Shift []float32
	// Act is the fused activation; ActNone means none.
	Act Act
	// Alpha is the LeakyReLU negative slope.
	Alpha float32
}

// Empty reports whether the epilogue performs no work.
func (e Epilogue) Empty() bool { return len(e.Scale) == 0 && e.Act == ActNone }

// ApplyInto applies the epilogue to dst in place: the affine sweep runs
// per channel (channel count = len(Scale), plane = elements/channel —
// for a rank-1 vector that degenerates to one term per element), then
// the activation sweep runs elementwise. The two sweeps reproduce the
// separate BatchNorm and activation nodes' per-element operation order
// exactly, so the result is bitwise identical to the unfused chain.
func (e Epilogue) ApplyInto(dst *Tensor) {
	if c := len(e.Scale); c > 0 {
		if len(e.Shift) != c {
			panic("tensor: Epilogue scale/shift length mismatch")
		}
		n := dst.Shape.NumElems()
		if n%c != 0 {
			panic("tensor: Epilogue channels do not divide output elements")
		}
		plane := n / c
		for ic := 0; ic < c; ic++ {
			seg := dst.Data[ic*plane : (ic+1)*plane]
			scale, shift := e.Scale[ic], e.Shift[ic]
			for i, v := range seg {
				seg[i] = v*scale + shift
			}
		}
	}
	if e.Act != ActNone {
		applyActInPlace(dst.Data, e.Act, e.Alpha)
	}
}

// applyActInPlace applies the activation elementwise in place: the one
// implementation behind both the fused epilogues and ActivationInto.
func applyActInPlace(data []float32, act Act, alpha float32) {
	switch act {
	case ActReLU:
		for i, v := range data {
			if v < 0 {
				data[i] = 0
			}
		}
	case ActReLU6:
		for i, v := range data {
			if v < 0 {
				data[i] = 0
			} else if v > 6 {
				data[i] = 6
			}
		}
	case ActLeakyReLU:
		for i, v := range data {
			if v < 0 {
				data[i] = alpha * v
			}
		}
	case ActSigmoid:
		for i, v := range data {
			data[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	case ActTanh:
		for i, v := range data {
			data[i] = float32(math.Tanh(float64(v)))
		}
	}
}

// applyEpilogueSpan applies the epilogue to a contiguous span of output
// channel oc in ONE traversal: each element goes through the exact
// per-element operation sequence of Epilogue.ApplyInto — (v*scale +
// shift) then act — so the result is bitwise identical to the separate
// whole-tensor sweeps, but the span is read and written once instead of
// twice. The cheap clamping activations fuse into the affine loop; the
// transcendental ones fall back to two passes (their math/exp call
// dominates anyway).
func applyEpilogueSpan(seg []float32, oc int, epi Epilogue) {
	if len(epi.Scale) == 0 {
		applyActInPlace(seg, epi.Act, epi.Alpha)
		return
	}
	scale, shift := epi.Scale[oc], epi.Shift[oc]
	switch epi.Act {
	case ActNone:
		for i, v := range seg {
			seg[i] = v*scale + shift
		}
	case ActReLU:
		for i, v := range seg {
			v = v*scale + shift
			if v < 0 {
				v = 0
			}
			seg[i] = v
		}
	case ActReLU6:
		for i, v := range seg {
			v = v*scale + shift
			if v < 0 {
				v = 0
			} else if v > 6 {
				v = 6
			}
			seg[i] = v
		}
	case ActLeakyReLU:
		for i, v := range seg {
			v = v*scale + shift
			if v < 0 {
				v = epi.Alpha * v
			}
			seg[i] = v
		}
	default:
		for i, v := range seg {
			seg[i] = v*scale + shift
		}
		applyActInPlace(seg, epi.Act, epi.Alpha)
	}
}

// foldEpilogueRows applies the epilogue to the flattened output-row
// tiles [lo, hi) by channel-contiguous spans, so a compute shard's
// epilogue costs a handful of span calls, not one call per row.
func foldEpilogueRows(out *Tensor, lo, hi int, epi Epilogue) {
	hout, wout := out.Shape[1], out.Shape[2]
	for u := lo; u < hi; {
		oc := u / hout
		end := (oc + 1) * hout
		if end > hi {
			end = hi
		}
		applyEpilogueSpan(out.Data[u*wout:end*wout], oc, epi)
		u = end
	}
}

// checkEpilogueChannels rejects an affine epilogue whose channel count
// does not match the kernel's output channels (the row-folded paths
// index Scale/Shift by output channel directly).
func checkEpilogueChannels(epi Epilogue, cout int) {
	if c := len(epi.Scale); c > 0 && (len(epi.Shift) != c || c != cout) {
		panic("tensor: fused epilogue scale/shift length does not match output channels")
	}
}

// Conv2DGEMMFusedInto is the im2col+GEMM convolution into a
// preallocated dst of shape [Cout, Hout, Wout], overwriting every
// element, with the bias, affine, and activation folded into one
// per-channel output sweep. A zero epi is the plain GEMM convolution.
// Weights that are mostly zeros (pruned models) reach the zero-skipping
// kernel through matmulInto's own check of its left operand. The
// im2col matrix is borrowed from the package scratch pool. This is the
// reference the pre-packed kernel is bit-identical to.
func Conv2DGEMMFusedInto(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue) {
	spec = spec.check()
	_, _, _, cout, _, _, hout, wout := conv2DDims(in, w, bias, spec)
	checkConvDst(dst, cout, hout, wout)
	checkEpilogueChannels(epi, cout)
	cin, kh, kw := w.Shape[1], w.Shape[2], w.Shape[3]
	rows := cin * kh * kw
	ncols := hout * wout
	s := convScratchPool.Get().(*convScratch)
	s.grow(rows*ncols, 0)
	im2colInto(s.rows, in, kh, kw, spec, hout, wout)
	matmulInto(dst.Data, w.Data, s.rows, cout, rows, ncols)
	convScratchPool.Put(s)
	for oc := 0; oc < cout; oc++ {
		seg := dst.Data[oc*ncols : (oc+1)*ncols]
		if bias != nil {
			b := bias[oc]
			for i := range seg {
				seg[i] += b
			}
		}
		if len(epi.Scale) > 0 {
			scale, shift := epi.Scale[oc], epi.Shift[oc]
			for i, v := range seg {
				seg[i] = v*scale + shift
			}
		}
		applyActInPlace(seg, epi.Act, epi.Alpha)
	}
}

// depthwiseRowsFused computes the flattened output-row tiles [lo, hi)
// and then applies the epilogue to just those rows while the shard is
// still cache-resident, instead of as whole-tensor sweeps after all
// shards finish.
func depthwiseRowsFused(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, lo, hi int, epi Epilogue) {
	depthwiseRows(dst, in, w, bias, spec, lo, hi)
	foldEpilogueRows(dst, lo, hi, epi)
}

// DepthwiseConv2DFusedInto computes the depthwise convolution into a
// preallocated dst of shape [C, Hout, Wout], overwriting every element,
// with the epilogue folded into the row loop — one output traversal; a
// zero epi is the plain depthwise convolution. Above the MAC work
// threshold the channel×row tile space is sharded across the worker
// pool (per-tile writes are disjoint, so results are bitwise identical
// to serial); small layers stay on the caller.
func DepthwiseConv2DFusedInto(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue) {
	spec = spec.check()
	c, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	wc, kh, kw := w.Shape[0], w.Shape[1], w.Shape[2]
	if c != wc {
		panic(fmt.Sprintf("tensor: DepthwiseConv2DFused channel mismatch: %v vs %v", in.Shape, w.Shape))
	}
	if bias != nil && len(bias) != c {
		panic("tensor: DepthwiseConv2DFused bias length mismatch")
	}
	hout, wout := spec.OutDims(h, wd, kh, kw)
	checkConvDst(dst, c, hout, wout)
	checkEpilogueChannels(epi, c)
	macsPerRow := kh * kw * wout
	if c*hout*macsPerRow < parallelThresholdMACs {
		depthwiseRowsFused(dst, in, w, bias, spec, 0, c*hout, epi)
		return
	}
	parallelFor(c*hout, grainForMACs(macsPerRow), func(lo, hi int) {
		depthwiseRowsFused(dst, in, w, bias, spec, lo, hi, epi)
	})
}

// DenseFusedInto computes dst = epi(w*x + bias) for a [Out, In] weight
// matrix; the epilogue's affine (if any) is per output element.
func DenseFusedInto(dst *Tensor, w *Tensor, bias, x []float32, epi Epilogue) {
	DenseInto(dst.Data, w, bias, x)
	epi.ApplyInto(dst)
}

// AddFusedInto computes dst = epi(a + b) — the fused residual-add +
// activation kernel (the epilogue carries no affine for adds).
func AddFusedInto(dst, a, b *Tensor, epi Epilogue) {
	AddInto(dst, a, b)
	epi.ApplyInto(dst)
}
