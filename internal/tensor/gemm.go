package tensor

import "sync"

// This file is the FP32 convolution, every geometry, in one formulation:
// channel-major, the product of the weights and the lowered input,
//
//	out[cout, npix] = W[cout, K] x im2col[K, npix],   K = Cin*KH*KW,
//
// with W's rows — the [Cout, Cin, KH, KW] weights as they lie — read in
// place, a channel pair's two rows a K-quad at a time. Nothing is packed:
// the microkernel holds one quad of each row in registers across a band
// of pixels, so the rows' layout is already the one it reads.
//
// A pointwise convolution (1x1, stride 1, unpadded: pointwise) reads its
// input rows as they are, since its im2col matrix is the input itself. A
// K x K one first stages its band's im2col rows, one K-block at a time,
// into scratch of its shard's own: interior spans copied from the input,
// padding taps +0.0, rows past K +0.0. Either way each output element
// keeps one expression: acc = +0, then per K-quad in K order acc += x0*w0
// + x1*w1 + x2*w2 + x3*w3, the last quad padded with +0.0 on both sides
// (stack quads of weights against zero input rows, never real inputs, so
// −0, Inf and NaN meet exactly what they would), then the bias and the
// epilogue. The K blocking does not enter it, so the bits depend neither
// on the geometry's path nor on how the work is cut.
//
// FP32 Dense is deliberately not a convolution here: DenseInto
// accumulates each dot product in one chain (matVecRange), an order the
// K-quads cannot reproduce.

const (
	gemmMR   = 4   // the K-quad: weights per row the microkernel holds in registers
	gemmKC   = 128 // the most im2col rows a K x K convolution stages at a time
	gemmBand = 256 // pixels a channel pair takes through its K-quads at a time

	// gemmBlockFloats bounds a K-block's input rows over a band, read in
	// place or staged, so that every channel pair reads the block from L1.
	gemmBlockFloats = 6 << 10
)

// pointwise reports whether a convolution is 1x1, stride 1 and
// unpadded, so it reads its input rows in place.
func pointwise(kh, kw int, spec Conv2DSpec) bool {
	padH, padW := spec.padHW()
	return kh == 1 && kw == 1 && spec.Stride == 1 && padH == 0 && padW == 0
}

// convJob is the convolution a shard works on: an FP32 one's operands
// (out, in, w, epi) or an int8 one's (acc, codes, qw, scales; qgemm.go),
// and the band body that computes either.
type convJob struct {
	out, in, w []float32 // [Cout, npix], [Cin, H, W] and [Cout, K]
	// acc is out viewed as int32 accumulators; codes the input's code
	// plane in pair rows; qw the [Cout, K] weight codes, K tap-major;
	// scales the requantize scale per output channel.
	acc    []int32
	codes  []int16
	qw     []int8
	scales []float32
	geo    convGeom
	spec   Conv2DSpec
	k      int // K = Cin*KH*KW, Cin rounded up to even for int8
	npix   int // the output plane's pixels
	bias   []float32
	epi    Epilogue
	// staged is set for a K x K convolution, whose bands stage their
	// im2col rows; a pointwise one reads its input rows in place.
	staged bool
	// byPairs cuts the work by channel pairs, every shard taking whole
	// rows, when a chunk of pixels would be shorter than a band (the
	// plane is under a band per chunk parallelFor cuts). Otherwise it is
	// cut by pixels, every shard taking all channels.
	byPairs bool
	// kernel computes one band: (*convJob).band or (*convJob).qband.
	kernel func(j *convJob, s *convScratch, c0, c1, p0, p1 int)

	fn func(lo, hi int)
}

// convJobs lends each call its job, whose shard body is bound once: a
// closure built per call would be a heap allocation per convolution.
var convJobs = sync.Pool{New: func() any {
	j := new(convJob)
	j.fn = j.shard
	return j
}}

// convScratch is what one shard borrows: a band's staged im2col rows (a
// pointwise FP32 conv's K-tail rows only), FP32, or int8 pair rows of
// four-byte code pairs (int32Rows), and the sink an odd last channel's
// missing partner accumulates into (as int32 for int8). Pooled, so
// concurrent shards never share one and a steady stream of convolutions
// allocates nothing.
type convScratch struct {
	tile [gemmKC * gemmBand]float32
	sink [gemmBand]float32
}

var convScratchPool = sync.Pool{New: func() any { return new(convScratch) }}

// Conv2DInto computes the 2-D convolution of in [Cin, H, W] with weights
// w [Cout, Cin, KH, KW], both read in place, into a preallocated dst
// [Cout, Hout, Wout], overwriting every element, bias, affine and
// activation applied as each channel pair finishes a band. A zero-value
// epi applies the bias alone. The output does not depend on the cut
// (run).
func Conv2DInto(dst, in, w *Tensor, bias []float32, spec Conv2DSpec, epi Epilogue) {
	spec = spec.check()
	geo := convGeometry(dst, in, w.Shape, bias, spec)
	checkEpilogueChannels(epi, geo.cout)
	convJob{out: dst.Data, in: in.Data, w: w.Data, geo: geo, spec: spec, bias: bias, epi: epi,
		kernel: (*convJob).band}.run()
}

// run computes the convolution job describes, of either datatype. Above
// the MAC threshold one parallelFor cuts the plane by pixels, or by
// channel pairs when a pixel chunk would be shorter than a band (at two
// cores, planes under 2048 pixels), so a 7x7 layer still shards. Every
// such chunk of a K x K convolution stages the whole plane again, so
// there it is cut into one chunk per worker. Chunks write disjoint
// outputs and an output's value does not depend on which others share
// its chunk, so the output does not depend on the cut.
func (job convJob) run() {
	g := &job.geo
	cin := g.cin
	if job.qw != nil {
		cin = (cin + 1) &^ 1
	}
	job.k, job.npix, job.staged = cin*g.kh*g.kw, g.hout*g.wout, !pointwise(g.kh, g.kw, job.spec)
	workers := len(ensurePool().workers)
	job.byPairs = job.npix < gemmBand*chunksPerWorker*workers
	j := convJobs.Get().(*convJob)
	job.fn = j.fn
	*j = job
	units, macsPerUnit := j.npix, j.k*g.cout
	if j.byPairs {
		units, macsPerUnit = (g.cout+1)/2, 2*j.k*j.npix
	}
	grain := grainForMACs(macsPerUnit)
	if j.byPairs && j.staged {
		grain = max(grain, (units+workers-1)/workers)
	}
	if units*macsPerUnit < parallelThresholdMACs {
		j.shard(0, units)
	} else {
		parallelFor(units, grain, j.fn)
	}
	*j = convJob{fn: j.fn} // the pool must not keep the tensors alive
	convJobs.Put(j)
}

// shard computes units [lo, hi) — pixels, or channel pairs when byPairs —
// a band of pixels at a time.
func (j *convJob) shard(lo, hi int) {
	s := convScratchPool.Get().(*convScratch)
	c0, c1, p0, p1 := 0, (j.geo.cout+1)/2, lo, hi
	if j.byPairs {
		c0, c1, p0, p1 = lo, hi, 0, j.npix
	}
	for b := p0; b < p1; b += gemmBand {
		j.kernel(j, s, c0, c1, b, min(b+gemmBand, p1))
	}
	convScratchPool.Put(s)
}

// band computes pixels [p0, p1) of channel pairs [c0, c1), a K-block at a
// time (as many whole quads of rows as fit gemmBlockFloats over the band,
// at most gemmKC staged ones): each pair's two rows are cleared
// before the first block, accumulated over every K-quad in K order, and
// finished after the last: bias, affine and activation in one pass
// (applyEpilogueSpan). An odd last channel pairs with its own weight
// row, and the partner accumulates into the sink. When the last block is
// not a multiple of the quad, its last quad reads zero-padded input rows
// — staged, or a pointwise conv's copied into the tile — and its weights
// from stack quads padded the same way.
func (j *convJob) band(s *convScratch, c0, c1, p0, p1 int) {
	k, npix, nb := j.k, j.npix, p1-p0
	kblock := max(gemmMR, gemmBlockFloats/nb&^(gemmMR-1))
	if j.staged {
		kblock = min(kblock, gemmKC)
	}
	for kc := 0; kc < k; kc += kblock {
		kb := min(k-kc, kblock)
		full := kb &^ (gemmMR - 1)
		x, stride, tail := j.in[p0:], npix, s.tile[:]
		if j.staged {
			stage(j, s.tile[:], j.in, kc, kb, p0, p1)
			x, stride, tail = s.tile[:], nb, s.tile[full*nb:]
		} else if x = x[kc*npix:]; full < kb {
			for r := full; r < kb; r++ {
				copy(tail[(r-full)*nb:], x[r*npix:][:nb])
			}
			clear(tail[(kb-full)*nb : gemmMR*nb])
		}
		for c := c0; c < c1; c++ {
			oc, pc := 2*c, min(2*c+1, j.geo.cout-1)
			o0, o1 := j.out[oc*npix+p0:oc*npix+p1], s.sink[:nb]
			if pc != oc {
				o1 = j.out[pc*npix+p0 : pc*npix+p1]
			}
			if kc == 0 {
				clear(o0)
				clear(o1)
			}
			w0, w1 := j.w[oc*k+kc:][:kb], j.w[pc*k+kc:][:kb]
			pointwiseQuads(o0, o1, x, stride, w0[:full], w1[:full])
			if full < kb {
				var t0, t1 [gemmMR]float32
				copy(t0[:], w0[full:])
				copy(t1[:], w1[full:])
				pointwiseQuads(o0, o1, tail, nb, t0[:], t1[:])
			}
			if kc+kb == k {
				applyEpilogueSpan(o0, j.bias, oc, j.epi)
				if pc != oc {
					applyEpilogueSpan(o1, j.bias, pc, j.epi)
				}
			}
		}
	}
}

// stage writes im2col rows [r0, r0+rows) of pixels [p0, p1) of j's
// convolution of in into tile, row r0+r at tile[r*nb:], and zero into the
// rows after them up to the next quad of rows. An FP32 convolution's rows
// run channel-major, (ic, ky, kx), the order its sums depend on; an int8
// one's are pair rows of its code plane's four-byte code pairs
// (codePairs), and run tap-major, (ky, kx, ic) over the channel pairs,
// so that each is one channel pair at one tap. Row (ic, ky, kx) of pixel
// (oy, ox) is the input at (ic, oy*s + ky - padH, ox*s + kx - padW), zero
// in the padding: the band is walked an output row at a time, the span of
// columns inside the plane copied (a gather at stride s) and the rest
// cleared.
func stage[T float32 | int32](j *convJob, tile, in []T, r0, rows, p0, p1 int) {
	g, s, nb := &j.geo, j.spec.Stride, p1-p0
	tapMajor, pairs := j.qw != nil, (g.cin+1)/2
	kx, ky, ic := r0%g.kw, r0/g.kw%g.kh, r0/(g.kw*g.kh)
	if tapMajor {
		ic, kx, ky = r0%pairs, r0/pairs%g.kw, r0/(pairs*g.kw)
	}
	for r := range rows {
		row, plane := tile[r*nb:(r+1)*nb], in[ic*g.h*g.wd:(ic+1)*g.h*g.wd]
		// Output columns [xlo, xhi) read a column inside the plane.
		dx := kx - j.spec.PadW
		xlo, xhi := max(0, (s-1-dx)/s), min(g.wout, (g.wd-1-dx+s)/s)
		oy, ox := p0/g.wout, p0%g.wout
		for i := 0; i < nb; oy, ox = oy+1, 0 {
			seg := row[i:min(nb, i+g.wout-ox)]
			i += len(seg)
			iy := oy*s + ky - j.spec.PadH
			lo, hi := min(max(xlo-ox, 0), len(seg)), min(max(xhi-ox, 0), len(seg))
			if uint(iy) >= uint(g.h) || lo >= hi {
				clear(seg)
				continue
			}
			clear(seg[:lo])
			clear(seg[hi:])
			src := plane[iy*g.wd+(ox+lo)*s+dx:]
			if s == 1 {
				copy(seg[lo:hi], src)
				continue
			}
			for t := range seg[lo:hi] {
				seg[lo+t] = src[t*s]
			}
		}
		if tapMajor {
			if ic++; ic == pairs {
				if ic, kx = 0, kx+1; kx == g.kw {
					kx, ky = 0, ky+1
				}
			}
		} else if kx++; kx == g.kw {
			if kx, ky = 0, ky+1; ky == g.kh {
				ky, ic = 0, ic+1
			}
		}
	}
	clear(tile[rows*nb : (rows+gemmMR-1)&^(gemmMR-1)*nb])
}

// pointwiseQuads is the channel-major microkernel: for each K-quad q of
// a channel pair's weight rows w0 and w1, o0[p] += x0[p]*a0 + x1[p]*a1 +
// x2[p]*a2 + x3[p]*a3 over the run of pixels, a the quad of w0, and o1[p]
// the same with w1's, where row r of the quad is x[(4q+r)*stride:]. Each
// input quad is loaded once and feeds both rows, and the eight weights
// stay in registers. Every product is rounded on its own (the explicit
// float32 conversions), so no architecture fuses a multiply into the add
// after it. With AVX2 the same expressions run eight pixels to a
// register (pointwiseQuadsAVX2), with the same bits.
func pointwiseQuads(o0, o1, x []float32, stride int, w0, w1 []float32) {
	n := len(o0)
	o1, w1 = o1[:n], w1[:len(w0)]
	if useAVX2 {
		if quads := len(w0) / gemmMR; quads > 0 {
			_ = x[(gemmMR*quads-1)*stride:][:n] // the last row the vector body reads
			pointwiseQuadsAVX2(o0, o1, x, stride, w0, w1)
		}
		return
	}
	for q := 0; q < len(w0)/gemmMR; q++ {
		r := x[gemmMR*q*stride:]
		x0, x1, x2, x3 := r[:n], r[stride:][:n], r[2*stride:][:n], r[3*stride:][:n]
		wa, wb := (*[gemmMR]float32)(w0[gemmMR*q:]), (*[gemmMR]float32)(w1[gemmMR*q:])
		a0, a1, a2, a3 := wa[0], wa[1], wa[2], wa[3]
		b0, b1, b2, b3 := wb[0], wb[1], wb[2], wb[3]
		for p := range o0 {
			v0, v1, v2, v3 := x0[p], x1[p], x2[p], x3[p]
			o0[p] += float32(v0*a0) + float32(v1*a1) + float32(v2*a2) + float32(v3*a3)
			o1[p] += float32(v0*b0) + float32(v1*b1) + float32(v2*b2) + float32(v3*b3)
		}
	}
}
