package tensor

import (
	"fmt"
	"math"
)

// This file is the int8 band pass's ends: the ahead-of-time packer, the
// requantize store, and the entry point. int8 Dense has none of its own:
// the graph runs it as the 1x1 conv of its input as an [In, 1, 1] plane.

// PackQConvWeights packs [Cout, Cin, KH, KW] int8 convolution weights
// ahead of time into the band pass's panels: the transpose of the
// [Cout, Cin*KH*KW] matrix, read in place. The pack keeps qw, which
// gives the kernel its geometry and weight scales.
func PackQConvWeights(qw *QTensor) *PackedQWeights {
	if len(qw.Shape) != 4 {
		panic(fmt.Sprintf("tensor: PackQConvWeights wants rank-4 weights, got %v", qw.Shape))
	}
	n := qw.Shape[0]
	k := len(qw.Data) / n
	pw := &PackedQWeights{K: k, N: n, Panels: make([]byte, walkTiles(k, n, nil)), q: qw}
	walkTiles(k, n, func(off, kc, kb, kb4, jc, jb int) {
		packQPanel(pw.Panels[off:off+kb4*jb], qw.Data, k, kc, kb, kb4, jc, jb)
	})
	return pw
}

// requantizeStrided is the fused int8 epilogue: dst[i] =
// act(acc[i*stride]*scale + bias), where scale combines the activation
// scale and the (possibly per-channel) weight scale. The band pass reads
// one output channel out of pixel-major accumulators at stride Cout;
// stride 1 is the contiguous case. The clamping activations and
// LeakyReLU fuse into the requantize loop; the rest take
// applyActInPlace's sweep after it. The product is rounded before the
// bias is added (float32(...)), so no architecture fuses the two.
func requantizeStrided(dst []float32, acc []int32, stride int, scale float32, bias float32, act Act, alpha float32) {
	switch act {
	case ActReLU, ActReLU6:
		hi := clampHi(act)
		for i := range dst {
			dst[i] = clamp(float32(float32(acc[i*stride])*scale)+bias, hi)
		}
	case ActLeakyReLU:
		for i := range dst {
			x := float32(float32(acc[i*stride])*scale) + bias
			if x < 0 {
				x *= alpha
			}
			dst[i] = x
		}
	default:
		for i := range dst {
			dst[i] = float32(float32(acc[i*stride])*scale) + bias
		}
		applyActInPlace(dst, act, alpha)
	}
}

// storeInt8 requantizes pixels [p0, p1) of each output channel out of the
// band's pixel-major accumulators, a contiguous store per channel while
// the accumulator rows are still in cache from the GEMM. On an AVX2 host
// the clamping activations and ActNone take eight channels by eight
// pixels at a time through requantizeAVX2; the channels and pixels past
// the last whole block, and the other activations, take
// requantizeStrided.
func storeInt8(j *bandJob, acc []int32, p0, p1 int) {
	cout, ncols := j.pw.N, j.geo.hout*j.geo.wout
	nv, pv := 0, 0 // the channels and pixels the vector body stores
	if useAVX2 && (j.act == ActNone || j.act == ActReLU || j.act == ActReLU6) {
		nv, pv = cout&^7, (p1-p0)&^7
		hi := math.Float32frombits(clampHi(j.act))
		for oc := 0; oc < nv && pv > 0; oc += 8 {
			var b [8]float32
			if j.bias != nil {
				b = [8]float32(j.bias[oc:])
			}
			requantizeAVX2(j.out[oc*ncols+p0:(oc+7)*ncols+p0+pv], ncols, acc[oc:(pv-1)*cout+oc+8], cout, pv,
				(*[8]float32)(j.scales[oc:]), &b, hi, j.act != ActNone)
		}
	}
	for oc, scale := range j.scales {
		lo := p0
		if oc < nv {
			lo += pv
		}
		if lo == p1 {
			continue
		}
		var b float32
		if j.bias != nil {
			b = j.bias[oc]
		}
		requantizeStrided(j.out[oc*ncols+lo:oc*ncols+p1], acc[(lo-p0)*cout+oc:], cout, scale, b, j.act, j.alpha)
	}
}

// Conv2DQPrepackedInto computes a 2-D convolution with int8-quantized,
// packed weights into a preallocated float32 dst of shape
// [Cout, Hout, Wout], overwriting every element, in one pipeline for
// every geometry: dynamic per-tensor symmetric quantization of the whole
// input — its scale (absScale), then every element rounded once into the
// call's code plane (quantizeRound) — then the band pass (bandJob.run):
// QGEMM on lane triples staged from the codes into int32 accumulators and
// the fused requantize+bias+activation store. The weight scales
// (per-tensor or per-channel) are those of the QTensor pq was packed
// from. The output does not depend on the cut.
func Conv2DQPrepackedInto(dst, in *Tensor, pq *PackedQWeights, bias []float32, spec Conv2DSpec, act Act, alpha float32) {
	spec = spec.check()
	geo := convGeometry(dst, in, pq.q.Shape, bias, spec)
	s := qscratchPool.Get().(*qscratch)
	sx := s.absScale(in.Data)
	s.qin = growSlice(s.qin, len(in.Data))
	s.quantizeRound(s.qin, in.Data, 1/sx)
	s.scales = growSlice(s.scales, geo.cout)
	for oc := range s.scales {
		s.scales[oc] = sx * pq.q.ScaleFor(oc)
	}
	bandJob{out: dst.Data, in: s.qin, geo: geo, spec: spec, pw: pq, bias: bias, scales: s.scales, act: act, alpha: alpha}.run()
	qscratchPool.Put(s)
}
