package tensor

import (
	"fmt"
	"sync"
)

// This file is the channel-major FP32 convolution of prepack.go's file
// comment, out[cout, npix] = W[cout, cin] x in[cin, npix], which a
// pointwise convolution is as it stands: the input is read in place, and
// the packed operand is the weights, interleaved a channel pair and a
// K-quad at a time. Each output element keeps the transposed product's
// expression, so its bits. The last quad's missing rows are +0.0
// weights against +0.0 input rows, never against real inputs, so −0,
// Inf and NaN meet exactly what they meet there.

// Pointwise reports whether a convolution is 1x1, stride 1 and unpadded:
// an FP32 one runs channel-major (PointwiseConvInto), an int8 one rounds
// its input as it stages its lanes, with no rounding pass.
func Pointwise(kh, kw int, spec Conv2DSpec) bool {
	padH, padW := spec.padHW()
	return kh == 1 && kw == 1 && spec.Stride == 1 && padH == 0 && padW == 0
}

// pointwiseBand is how many output pixels the kernel takes through one
// pass over a channel pair's K-quads: the pair's two rows of a band (2
// KB) stay in L1 across the quads, and the band's K input rows (1 KB
// each) in cache across the channel pairs.
const pointwiseBand = 256

// PackedPointwise is the weight matrix of a pointwise FP32 convolution,
// [Cout, Cin] (Shape [Cout, Cin, 1, 1]), packed for the channel-major
// kernel: channel pair c's K-quad q is Panels[(c*nq+q)*8:][:8], the quad
// of channel 2c then that of channel 2c+1, with +0.0 past K and in the
// missing partner of an odd last channel (nq = ceil(K/4)). It is
// immutable after construction.
type PackedPointwise Packed[float32]

// PackPointwiseWeights packs [Cout, Cin, 1, 1] convolution weights for
// PointwiseConvInto.
func PackPointwiseWeights(w *Tensor) *PackedPointwise {
	if len(w.Shape) != 4 || w.Shape[2] != 1 || w.Shape[3] != 1 {
		panic(fmt.Sprintf("tensor: PackPointwiseWeights wants [Cout, Cin, 1, 1] weights, got %v", w.Shape))
	}
	n, k := w.Shape[0], w.Shape[1]
	nq := (k + gemmMR - 1) / gemmMR
	pp := &PackedPointwise{K: k, N: n, Shape: w.Shape.Clone(), Panels: make([]float32, (n+1)/2*nq*2*gemmMR)}
	for oc := 0; oc < n; oc++ {
		pair := pp.Panels[oc/2*nq*2*gemmMR+oc%2*gemmMR:]
		for kk, v := range w.Data[oc*k : (oc+1)*k] {
			pair[kk/gemmMR*2*gemmMR+kk%gemmMR] = v
		}
	}
	return pp
}

// pointwiseJob is the convolution a shard of PointwiseConvInto works on.
type pointwiseJob struct {
	out, in []float32 // [Cout, npix] and [Cin, npix]
	npix    int
	pp      *PackedPointwise
	bias    []float32
	epi     Epilogue
	// byPairs cuts the work by channel pairs, every shard taking whole
	// rows, when a chunk of pixels would be shorter than a band (the
	// plane is under a band per chunk parallelFor cuts). Otherwise it is
	// cut by pixels, every shard taking all channels.
	byPairs bool

	fn func(lo, hi int)
}

// pointwiseJobs lends each call its job, whose shard body is bound once:
// a closure built per call would be a heap allocation per convolution.
var pointwiseJobs = sync.Pool{New: func() any {
	j := new(pointwiseJob)
	j.fn = j.shard
	return j
}}

// PointwiseConvInto computes the pointwise (1x1, stride 1, unpadded)
// convolution of in [Cin, H, W] with packed weights into a preallocated
// dst [Cout, H, W], overwriting every element, bias, affine and
// activation applied as each channel pair finishes a band. Its output is
// bit for bit Conv2DPrepackedInto's on the same weights. Above the MAC
// threshold one parallelFor cuts the plane by pixels, or by channel
// pairs when a pixel chunk would be shorter than a band (at two cores,
// 28x28 planes and smaller), so a 7x7 layer still shards; the output
// does not depend on the cut.
func PointwiseConvInto(dst, in *Tensor, pp *PackedPointwise, bias []float32, epi Epilogue) {
	geo := convGeometry(dst, in, pp.Shape, bias, Conv2DSpec{Stride: 1})
	checkEpilogueChannels(epi, geo.cout)
	npix := geo.h * geo.wd
	j := pointwiseJobs.Get().(*pointwiseJob)
	byPairs := npix < pointwiseBand*chunksPerWorker*len(ensurePool().workers)
	*j = pointwiseJob{out: dst.Data, in: in.Data, npix: npix, pp: pp, bias: bias, epi: epi, byPairs: byPairs, fn: j.fn}
	units, macsPerUnit := npix, pp.K*pp.N
	if j.byPairs {
		units, macsPerUnit = (pp.N+1)/2, 2*pp.K*npix
	}
	if units*macsPerUnit < parallelThresholdMACs {
		j.shard(0, units)
	} else {
		parallelFor(units, grainForMACs(macsPerUnit), j.fn)
	}
	*j = pointwiseJob{fn: j.fn} // the pool must not keep the tensors alive
	pointwiseJobs.Put(j)
}

// shard computes units [lo, hi) — pixels, or channel pairs when byPairs —
// a band of pixels at a time.
func (j *pointwiseJob) shard(lo, hi int) {
	c0, c1, p0, p1 := 0, (j.pp.N+1)/2, lo, hi
	if j.byPairs {
		c0, c1, p0, p1 = lo, hi, 0, j.npix
	}
	for b := p0; b < p1; b += pointwiseBand {
		j.band(c0, c1, b, min(b+pointwiseBand, p1))
	}
}

// band computes pixels [p0, p1) of channel pairs [c0, c1): each pair's
// two rows are cleared, accumulated over every K-quad in K order, then
// finished. An odd last channel's partner accumulates into a sink. When
// K is not a multiple of the quad, the last quad reads its rows from a
// copy that pads them with +0.0.
func (j *pointwiseJob) band(c0, c1, p0, p1 int) {
	k, n, npix, nb := j.pp.K, j.pp.N, j.npix, p1-p0
	nq, full := (k+gemmMR-1)/gemmMR, k/gemmMR
	var sink [pointwiseBand]float32
	var tail [gemmMR * pointwiseBand]float32
	for kk := gemmMR * full; kk < k; kk++ {
		copy(tail[(kk-gemmMR*full)*nb:], j.in[kk*npix+p0:kk*npix+p1])
	}
	for c := c0; c < c1; c++ {
		oc := 2 * c
		o0, o1 := j.out[oc*npix+p0:oc*npix+p1], sink[:nb]
		if oc+1 < n {
			o1 = j.out[(oc+1)*npix+p0 : (oc+1)*npix+p1]
		}
		clear(o0)
		clear(o1)
		w := j.pp.Panels[c*nq*2*gemmMR : (c+1)*nq*2*gemmMR]
		pointwiseQuads(o0, o1, j.in[p0:], npix, w[:full*2*gemmMR])
		if full < nq {
			pointwiseQuads(o0, o1, tail[:], nb, w[full*2*gemmMR:])
		}
		j.finish(o0, oc)
		if oc+1 < n {
			j.finish(o1, oc+1)
		}
	}
}

// finish adds channel oc's bias to its accumulated row segment and runs
// the affine and activation over it (applyEpilogueSpan): per element the
// transposed store's expressions.
func (j *pointwiseJob) finish(seg []float32, oc int) {
	if j.bias != nil {
		b := j.bias[oc]
		for i := range seg {
			seg[i] += b
		}
	}
	applyEpilogueSpan(seg, oc, j.epi)
}

// pointwiseQuads is the channel-major microkernel: for each K-quad q of a
// channel pair's packed weights w, o0[p] += x0[p]*w0 + x1[p]*w1 +
// x2[p]*w2 + x3[p]*w3 over the run of pixels, and o1[p] the same with the
// partner's quad, where row r of the quad is x[(4q+r)*stride:]. Each
// input quad is loaded once and feeds both rows, and the eight weights
// stay in registers.
func pointwiseQuads(o0, o1, x []float32, stride int, w []float32) {
	n := len(o0)
	o1 = o1[:n]
	for q := 0; q < len(w)/(2*gemmMR); q++ {
		r := x[gemmMR*q*stride:]
		x0, x1, x2, x3 := r[:n], r[stride:][:n], r[2*stride:][:n], r[3*stride:][:n]
		wq := (*[2 * gemmMR]float32)(w[2*gemmMR*q:])
		a0, a1, a2, a3 := wq[0], wq[1], wq[2], wq[3]
		b0, b1, b2, b3 := wq[4], wq[5], wq[6], wq[7]
		for p := range o0 {
			v0, v1, v2, v3 := x0[p], x1[p], x2[p], x3[p]
			o0[p] += v0*a0 + v1*a1 + v2*a2 + v3*a3
			o1[p] += v0*b0 + v1*b1 + v2*b2 + v3*b3
		}
	}
}
