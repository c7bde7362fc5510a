package tensor

import (
	"fmt"
	"sync"
)

// This file is the channel-major FP32 convolution of prepack.go's file
// comment, out[cout, npix] = W[cout, cin] x in[cin, npix], which a
// pointwise convolution is as it stands: both operands are read in
// place, the input's channel rows and the weights' [Cout, Cin] rows, a
// channel pair's two rows a K-quad at a time. Nothing is packed — the
// microkernel holds one quad of each row in registers across a band of
// pixels, so the rows' layout is already the one it reads. Each output
// element keeps the transposed product's expression, so its bits. The
// last quad's missing rows are +0.0 weights against +0.0 input rows,
// never against real inputs, so −0, Inf and NaN meet exactly what they
// meet there.

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

// pointwiseJob is the convolution a shard of PointwiseConvInto works on.
type pointwiseJob struct {
	out, in, w []float32 // [Cout, npix], [Cin, npix] and [Cout, Cin]
	k, n, npix int       // Cin, Cout and the plane's pixels
	bias       []float32
	epi        Epilogue
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
// convolution of in [Cin, H, W] with weights w [Cout, Cin, 1, 1], both
// read in place, into a preallocated dst [Cout, H, W], overwriting every
// element, bias, affine and activation applied as each channel pair
// finishes a band. Its output is bit for bit Conv2DPrepackedInto's on the
// same weights. Above the MAC threshold one parallelFor cuts the plane by
// pixels, or by channel pairs when a pixel chunk would be shorter than a
// band (at two cores, 28x28 planes and smaller), so a 7x7 layer still
// shards; the output does not depend on the cut.
func PointwiseConvInto(dst, in, w *Tensor, bias []float32, epi Epilogue) {
	geo := convGeometry(dst, in, w.Shape, bias, Conv2DSpec{Stride: 1})
	if geo.kh != 1 || geo.kw != 1 {
		panic(fmt.Sprintf("tensor: PointwiseConvInto wants [Cout, Cin, 1, 1] weights, got %v", w.Shape))
	}
	checkEpilogueChannels(epi, geo.cout)
	k, n, npix := geo.cin, geo.cout, geo.h*geo.wd
	j := pointwiseJobs.Get().(*pointwiseJob)
	byPairs := npix < pointwiseBand*chunksPerWorker*len(ensurePool().workers)
	*j = pointwiseJob{out: dst.Data, in: in.Data, w: w.Data, k: k, n: n, npix: npix, bias: bias, epi: epi, byPairs: byPairs, fn: j.fn}
	units, macsPerUnit := npix, k*n
	if j.byPairs {
		units, macsPerUnit = (n+1)/2, 2*k*npix
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
	c0, c1, p0, p1 := 0, (j.n+1)/2, lo, hi
	if j.byPairs {
		c0, c1, p0, p1 = lo, hi, 0, j.npix
	}
	for b := p0; b < p1; b += pointwiseBand {
		j.band(c0, c1, b, min(b+pointwiseBand, p1))
	}
}

// band computes pixels [p0, p1) of channel pairs [c0, c1): each pair's
// two rows are cleared, accumulated over every K-quad in K order, then
// finished. An odd last channel pairs with its own weight row, and the
// partner accumulates into a sink. When K is not a multiple of the quad,
// the last quad reads its input rows from a copy that pads them with
// +0.0, and its weights from stack quads padded the same way.
func (j *pointwiseJob) band(c0, c1, p0, p1 int) {
	k, npix, nb, full := j.k, j.npix, p1-p0, j.k/gemmMR*gemmMR
	var sink [pointwiseBand]float32
	var tail [gemmMR * pointwiseBand]float32
	for kk := full; kk < k; kk++ {
		copy(tail[(kk-full)*nb:], j.in[kk*npix+p0:kk*npix+p1])
	}
	for c := c0; c < c1; c++ {
		oc, pc := 2*c, min(2*c+1, j.n-1)
		o0, o1 := j.out[oc*npix+p0:oc*npix+p1], sink[:nb]
		if pc != oc {
			o1 = j.out[pc*npix+p0 : pc*npix+p1]
		}
		clear(o0)
		clear(o1)
		w0, w1 := j.w[oc*k:(oc+1)*k], j.w[pc*k:(pc+1)*k]
		pointwiseQuads(o0, o1, j.in[p0:], npix, w0[:full], w1[:full])
		if full < k {
			var t0, t1 [gemmMR]float32
			copy(t0[:], w0[full:])
			copy(t1[:], w1[full:])
			pointwiseQuads(o0, o1, tail[:], nb, t0[:], t1[:])
		}
		j.finish(o0, oc)
		if pc != oc {
			j.finish(o1, pc)
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

// pointwiseQuads is the channel-major microkernel: for each K-quad q of
// a channel pair's weight rows w0 and w1, o0[p] += x0[p]*a0 + x1[p]*a1 +
// x2[p]*a2 + x3[p]*a3 over the run of pixels, a the quad of w0, and o1[p]
// the same with w1's, where row r of the quad is x[(4q+r)*stride:]. Each
// input quad is loaded once and feeds both rows, and the eight weights
// stay in registers.
func pointwiseQuads(o0, o1, x []float32, stride int, w0, w1 []float32) {
	n := len(o0)
	o1, w1 = o1[:n], w1[:len(w0)]
	for q := 0; q < len(w0)/gemmMR; q++ {
		r := x[gemmMR*q*stride:]
		x0, x1, x2, x3 := r[:n], r[stride:][:n], r[2*stride:][:n], r[3*stride:][:n]
		wa, wb := (*[gemmMR]float32)(w0[gemmMR*q:]), (*[gemmMR]float32)(w1[gemmMR*q:])
		a0, a1, a2, a3 := wa[0], wa[1], wa[2], wa[3]
		b0, b1, b2, b3 := wb[0], wb[1], wb[2], wb[3]
		for p := range o0 {
			v0, v1, v2, v3 := x0[p], x1[p], x2[p], x3[p]
			o0[p] += v0*a0 + v1*a1 + v2*a2 + v3*a3
			o1[p] += v0*b0 + v1*b1 + v2*b2 + v3*b3
		}
	}
}
