package tensor

import "fmt"

// This file is the int8 band pass's ends: the ahead-of-time packers, the
// requantize store, and the conv/dense entry points. int8 Dense packs
// too: it is a 1x1 conv.

// packQWeights packs qw ahead of time — the transpose of its [n, k]
// matrix, n its first axis (Cout or Out), read in place — into panels
// and a shape of its own.
func packQWeights(qw *QTensor, rank int, who string) *PackedQWeights {
	if len(qw.Shape) != rank {
		panic(fmt.Sprintf("tensor: %s wants rank-%d weights, got %v", who, rank, qw.Shape))
	}
	n := qw.Shape[0]
	k := len(qw.Data) / n
	return pack(qw.Data, k, n, 1, k, qw.Shape.Clone())
}

// PackQConvWeights packs [Cout, Cin, KH, KW] int8 convolution weights
// for the prepacked QGEMM path (transposed to [Cin*KH*KW, Cout]).
func PackQConvWeights(qw *QTensor) *PackedQWeights { return packQWeights(qw, 4, "PackQConvWeights") }

// PackQDenseWeights packs an [Out, In] int8 dense weight matrix for the
// prepacked QGEMM path (transposed to [In, Out]) as the [Out, In, 1, 1]
// pointwise conv it runs as; the shape's backing array goes on with
// [Out, 1, 1], so DenseQPrepackedInto's views need no allocation.
func PackQDenseWeights(qw *QTensor) *PackedQWeights {
	pq := packQWeights(qw, 2, "PackQDenseWeights")
	pq.Shape = Shape{pq.N, pq.K, 1, 1, pq.N, 1, 1}[:4]
	return pq
}

// requantizeStrided is the fused int8 epilogue: dst[i] =
// act(acc[i*stride]*scale + bias), where scale combines the activation
// scale and the (possibly per-channel) weight scale. The band pass reads
// one output channel out of pixel-major accumulators at stride Cout;
// stride 1 is the contiguous case. As in applyEpilogueSpan, the cheap
// clamping activations fuse into the requantize loop and the rest take
// applyActInPlace's sweep after it.
func requantizeStrided(dst []float32, acc []int32, stride int, scale float32, bias float32, act Act, alpha float32) {
	switch act {
	case ActReLU, ActReLU6:
		hi := clampHi(act)
		for i := range dst {
			dst[i] = clamp(float32(acc[i*stride])*scale+bias, hi)
		}
	case ActLeakyReLU:
		for i := range dst {
			x := float32(acc[i*stride])*scale + bias
			if x < 0 {
				x *= alpha
			}
			dst[i] = x
		}
	default:
		for i := range dst {
			dst[i] = float32(acc[i*stride])*scale + bias
		}
		applyActInPlace(dst, act, alpha)
	}
}

// storeInt8 requantizes pixels [p0, p1) of each output channel out of the
// band's pixel-major accumulators, a 256-byte contiguous store per
// channel while the accumulator rows are still in cache from the GEMM.
func storeInt8(j *bandJob, acc []int32, p0, p1 int) {
	cout, ncols := j.pw.N, j.geo.hout*j.geo.wout
	for oc, scale := range j.scales {
		var b float32
		if j.bias != nil {
			b = j.bias[oc]
		}
		requantizeStrided(j.out[oc*ncols+p0:oc*ncols+p1], acc[oc:], cout, scale, b, j.act, j.alpha)
	}
}

// Conv2DQPrepackedInto computes a 2-D convolution with int8-quantized,
// packed weights into a preallocated float32 dst of shape
// [Cout, Hout, Wout], overwriting every element: dynamic per-tensor
// symmetric activation quantization of the whole input (a pointwise conv
// only takes its scale and rounds as its lanes are staged), then the band
// pass (bandJob.run) — QGEMM on lanes staged from the codes into int32
// accumulators and the fused requantize+bias+activation store — one
// kernel call end to end. The
// output does not depend on the cut. qw supplies the weight scales
// (per-tensor or per-channel); its codes are not read.
func Conv2DQPrepackedInto(dst, in *Tensor, pq *PackedQWeights, qw *QTensor, bias []float32, spec Conv2DSpec, act Act, alpha float32) {
	spec = spec.check()
	geo := convGeometry(dst, in, pq.Shape, bias, spec)
	s := qscratchPool.Get().(*qscratch)
	s.scales = growSlice(s.scales, geo.cout)
	job := bandJob{out: dst.Data, geo: geo, spec: spec, pw: pq, bias: bias, scales: s.scales, act: act, alpha: alpha}
	sx := s.absScale(in.Data)
	if Pointwise(geo.kh, geo.kw, spec) {
		job.quant = quantJob{src: in.Data, inv: 1 / sx}
	} else {
		s.qin = growSlice(s.qin, len(in.Data))
		s.quantizeRound(s.qin, in.Data, 1/sx)
		job.in = s.qin
	}
	for oc := range s.scales {
		s.scales[oc] = sx * qw.ScaleFor(oc)
	}
	job.run()
	qscratchPool.Put(s)
}

// DenseQPrepackedInto computes dst = act(wq*x + bias) for an
// int8-quantized, packed [Out, In] weight matrix, overwriting all of dst
// (length Out): the pointwise conv of x as an [In, 1, 1] plane.
func DenseQPrepackedInto(dst []float32, pq *PackedQWeights, qw *QTensor, bias, x []float32, act Act, alpha float32) {
	if len(pq.Shape) != 4 || cap(pq.Shape) < 7 || pq.K != len(x) || pq.N != len(dst) {
		panic(fmt.Sprintf("tensor: DenseQPrepacked shape mismatch: %v x vec(%d) into %d", pq.Shape, len(x), len(dst)))
	}
	Conv2DQPrepackedInto(&Tensor{Shape: pq.Shape[4:7], Data: dst}, &Tensor{Shape: pq.Shape[1:4], Data: x}, pq, qw, bias, Conv2DSpec{}, act, alpha)
}
