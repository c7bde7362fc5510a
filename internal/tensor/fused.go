package tensor

import (
	"fmt"
	"math"
	"sync"
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

// ApplyInto applies the epilogue to dst in place, a channel at a time
// (channel count = len(Scale), plane = elements/channel — for a rank-1
// vector that degenerates to one term per element) through
// applyEpilogueSpan, whose per-element operations are the separate
// BatchNorm and activation nodes', in their order, so the result is
// bitwise identical to the unfused chain.
func (e Epilogue) ApplyInto(dst *Tensor) {
	c := len(e.Scale)
	if c == 0 {
		applyActInPlace(dst.Data, e.Act, e.Alpha)
		return
	}
	if len(e.Shift) != c {
		panic("tensor: Epilogue scale/shift length mismatch")
	}
	n := dst.Shape.NumElems()
	if n%c != 0 {
		panic("tensor: Epilogue channels do not divide output elements")
	}
	plane := n / c
	for ic := range c {
		applyEpilogueSpan(dst.Data[ic*plane:(ic+1)*plane], nil, ic, e)
	}
}

// Bit patterns the clamp tests against: +Inf, the largest pattern that is
// not a NaN, and 6.0.
const (
	posInfBits = 0x7f800000
	sixBits    = 0x40c00000
)

// clampHi returns the bit pattern of a clamping activation's upper
// bound: 6.0 for ReLU6, +Inf (no bound a float exceeds) for ReLU.
func clampHi(act Act) uint32 {
	if act == ActReLU6 {
		return sixBits
	}
	return posInfBits
}

// clamp returns what `if v < 0 { v = 0 } else if v > hi { v = hi }`
// returns, for every float32 bit pattern: -0.0 and both signs of NaN
// pass through, -Inf goes to +0.0 and +Inf to hi. The comparisons are
// unsigned range tests on the bits — [0x80000001, 0xff800000] is every
// negative value, (hi, +Inf] every value above the bound — which the
// compiler turns into conditional moves on amd64 and arm64, so nothing
// here depends on the data. The float comparisons it replaces are
// branches that mispredict on every second element of sign-random
// activations: 6.4–6.8 ns an element against 1.5–1.6, the affine and a
// copy included (BenchmarkClampReLU6; Xeon 2.10 GHz, go1.24.0). With
// AVX2 the FP32 epilogue clamps eight lanes at a time with ordered
// compares instead (epilogueAVX2), to the same bits: 0.45 ns an element
// against this loop's 2.7 in the same alternated rounds (a 2-vCPU Xeon,
// go1.24.0, a shared host).
func clamp(v float32, hi uint32) float32 {
	b := math.Float32bits(v)
	if b-0x80000001 < posInfBits {
		b = 0
	}
	if b-hi-1 < posInfBits-hi {
		b = hi
	}
	return math.Float32frombits(b)
}

// The operations epilogueAVX2 runs, in this order; epiConvert, the int8
// requantize's, comes first and implies epiAffine without epiBias.
const (
	epiBias    = 1 << iota // v + b
	epiAffine              // v*scale + shift
	epiClamp               // clamp(v, hi)
	epiConvert             // v = float32(the int32 in v's bits)
)

// applyActInPlace applies the activation elementwise in place: the one
// implementation behind both the fused epilogues and ActivationInto.
// With AVX2 the clamping activations run eight lanes at a time.
func applyActInPlace(data []float32, act Act, alpha float32) {
	switch act {
	case ActReLU, ActReLU6:
		hi := clampHi(act)
		if useAVX2 {
			epilogueAVX2(data, 0, 0, 0, math.Float32frombits(hi), epiClamp)
			return
		}
		for i, v := range data {
			data[i] = clamp(v, hi)
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

// applyEpilogueSpan runs channel oc's bias (when bias is not nil), then
// the epilogue's affine and activation, over a contiguous span of the
// channel: per element the exact operation sequence of the separate
// bias add, BatchNorm and activation kernels — (v + b), then (v*scale +
// shift), then act — so the result is bitwise identical to the unfused
// chain. With AVX2 the bias, the affine and a clamping activation run in
// one traversal, eight lanes at a time (epilogueAVX2); the Go loops fuse
// the affine and the clamp. Every product is rounded on its own, so no
// architecture fuses it into the add after it. The other activations
// take applyActInPlace's sweep after the affine (their math call
// dominates anyway).
func applyEpilogueSpan(seg, bias []float32, oc int, epi Epilogue) {
	var b, scale, shift float32
	mode := 0
	if bias != nil {
		b, mode = bias[oc], epiBias
	}
	if len(epi.Scale) > 0 {
		scale, shift, mode = epi.Scale[oc], epi.Shift[oc], mode|epiAffine
	}
	hi := clampHi(epi.Act)
	if epi.Act == ActReLU || epi.Act == ActReLU6 {
		mode |= epiClamp
	}
	if useAVX2 {
		if mode != 0 {
			epilogueAVX2(seg, b, scale, shift, math.Float32frombits(hi), mode)
		}
		if mode&epiClamp == 0 {
			applyActInPlace(seg, epi.Act, epi.Alpha)
		}
		return
	}
	if mode&epiBias != 0 {
		for i := range seg {
			seg[i] += b
		}
	}
	switch {
	case mode&epiAffine == 0:
		applyActInPlace(seg, epi.Act, epi.Alpha)
	case mode&epiClamp != 0:
		for i, v := range seg {
			seg[i] = clamp(float32(v*scale)+shift, hi)
		}
	default:
		for i, v := range seg {
			seg[i] = float32(v*scale) + shift
		}
		applyActInPlace(seg, epi.Act, epi.Alpha)
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

// depthwiseShardMACs is the depthwise layer size from which the row
// space is sharded: two grains, the least parallelFor cuts into more
// than one chunk. The GEMM kernels' bar (parallelThresholdMACs, eight
// times this) is too high here. On the AVX2 body a depthwise MAC with
// its epilogue runs at 4.1–13.1 GMAC/s a core (BenchmarkDepthwise3x3 at
// -cpu 1: 4.1 at 576x14x14 stride 2 and 4.6 at 960x7x7, 7.2–7.6 on the
// other stride-2 shapes, 7.6–13.1 on the stride-1 ones), so a two-grain
// layer is 10–30 µs of work, and a fork that gets no help costs its
// caller about 1 µs (BenchmarkForkJoin: 0.8–1.4 µs). Serial against
// sharded at GOMAXPROCS 2, three runs of 2000 calls: 960x7x7 85–119 →
// 49–73 µs, while a 139 K-MAC layer (13–15 → 12–19 µs) and 576x14x14
// stride 2 (59–60 → 45–69 µs) gain nothing resolved (Xeon 2.10 GHz, 2
// CPUs, go1.24.0).
const depthwiseShardMACs = 2 * parallelGrainMACs

// DepthwiseConv2DFusedInto computes the depthwise convolution into a
// preallocated dst of shape [C, Hout, Wout], overwriting every element,
// with the epilogue folded into the row loop — one output traversal; a
// zero epi is the plain depthwise convolution. From depthwiseShardMACs
// the channel×row tile space is sharded across the worker pool (per-tile
// writes are disjoint, so results are bitwise identical to serial);
// smaller layers stay on the caller.
func DepthwiseConv2DFusedInto(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue) {
	spec = spec.check()
	if len(in.Shape) != 3 || len(w.Shape) != 3 {
		panic(fmt.Sprintf("tensor: depthwise conv wants a rank-3 input and rank-3 [C, KH, KW] weights, got %v and %v", in.Shape, w.Shape))
	}
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
	if c*hout*macsPerRow < depthwiseShardMACs {
		depthwiseRows(dst, in, w, bias, spec, 0, c*hout, epi)
		return
	}
	j := depthwiseJobs.Get().(*depthwiseJob)
	*j = depthwiseJob{dst: dst, in: in, w: w, bias: bias, spec: spec, epi: epi, fn: j.fn}
	parallelFor(c*hout, grainForMACs(macsPerRow), j.fn)
	*j = depthwiseJob{fn: j.fn} // the pool must not keep the tensors alive
	depthwiseJobs.Put(j)
}

// depthwiseJob is one sharded depthwise call's operands.
type depthwiseJob struct {
	dst, in, w *Tensor
	bias       []float32
	spec       Conv2DSpec
	epi        Epilogue
	fn         func(lo, hi int)
}

// depthwiseJobs lends each sharded call its job, whose shard body is
// bound once: a closure built per call would be a heap allocation per
// convolution.
var depthwiseJobs = sync.Pool{New: func() any {
	j := new(depthwiseJob)
	j.fn = func(lo, hi int) { depthwiseRows(j.dst, j.in, j.w, j.bias, j.spec, lo, hi, j.epi) }
	return j
}}
