package tensor

import "sync"

// This file is the int8 GEMM convolution, in its transposed formulation.
// A convolution is a product of its weights W[cout, rows] and its
// lowered input, rows = Cin*KH*KW deep; the int8 one runs it as
//
//	outT[ncols, cout] = rowsA[ncols, rows] x Wt[rows, cout]
//
// where rowsA is the im2row matrix of the input's codes, one row per
// output pixel, never written out: the microkernel (qgemm.go) stages its
// rows from the code plane as it multiplies them by Wt, the transposed
// weight matrix packed into panels — as int16 codes for its AVX2 body,
// as the Go fallback's SWAR lane triples elsewhere. Every geometry,
// pointwise included, stages from the same plane, which the entry point
// rounds once, whole (qprepack.go). A band goes into pixel-major int32 accumulators and is
// requantized back to channel-major by the store.
//
// The weights are constant during inference, so they are packed into the
// microkernel's panels ahead of time by PackQConvWeights: a compiled
// program packs once and reuses the panels forever. A panel holds the
// codes four columns to a K-quad, a layout the codes do not have, so it
// is a second copy of them. Integer accumulation is exact in any order,
// so the results depend on no blocking. Padding positions contribute the
// code 0.
//
// The FP32 convolution (gemm.go) packs nothing: it reads its weights'
// rows in place, channel-major.

// PackedQWeights is int8 weights packed into the blocked-panel layout the
// QGEMM microkernel consumes, one byte per code: the panel of every
// (N-block, K-block) tile of a [K, N] operand — for a convolution, the
// transposed filter bank — concatenated in the kernel's traversal order
// (walkTiles). It is immutable after construction: every executor of a
// compiled program reads the same one.
type PackedQWeights struct {
	// K and N are the GEMM dimensions of the packed operand: it stands
	// in for a [K, N] B matrix (K = Cin*KH*KW, N = Cout).
	K, N int
	// Panels is the concatenated packed panel data.
	Panels []byte
	// q is the [Cout, Cin, KH, KW] weights the panels were packed from:
	// the kernel's geometry and its weight scales.
	q *QTensor
}

// walkTiles calls fn for every (N-block, K-block) tile of a [k, n] packed
// operand — columns [jc, jc+jb) x rows [kc, kc+kb), kb rounded up to the
// interleave as kb4, its panel at Panels[off : off+kb4*jb] — jc outer, kc
// inner: the order panels are stored in and consumed in, which the packer,
// the tile loop and the length computation (a nil fn) all take from here.
// It returns the total panel length.
func walkTiles(k, n int, fn func(off, kc, kb, kb4, jc, jb int)) int {
	off := 0
	for jc := 0; jc < n; jc += qgemmNC {
		jb := min(n-jc, qgemmNC)
		for kc := 0; kc < k; kc += qgemmKC {
			kb := min(k-kc, qgemmKC)
			kb4 := (kb + qgemmMR - 1) &^ (qgemmMR - 1)
			if fn != nil {
				fn(off, kc, kb, kb4, jc, jb)
			}
			off += kb4 * jb
		}
	}
	return off
}

// rowRange computes pixels [plo, phi) of out[p, :] = im2row(in)[p, :] x
// Wt into dst, pixel p's row at dst[(p-plo)*pw.N:], overwriting them:
// the one GEMM tile loop. The pixels' windows go into win once for every
// K-block; the microkernel stages its K-block of a row from the input.
// A row's result does not depend on which rows share its range — integer
// sums are exact — so callers may shard pixels freely.
func (j *bandJob) rowRange(dst []int32, win []window, plo, phi int) {
	k, n := j.pw.K, j.pw.N
	win = win[:phi-plo]
	j.windows(win, plo)
	clear(dst[:len(win)*n])
	walkTiles(k, n, func(off, kc, kb, kb4, jc, jb int) {
		qgemmPanelRows(dst, j, win, j.pw.Panels[off:off+kb4*jb], kc, kb, jc, jb)
	})
}

// convTaps is K indices [kc, kc+kb) of a convolution's im2row row: tap
// g, input channel ic at kernel row ky and column kx, reads the input
// [cin, h, wd] at off[g] = (ic*h+ky)*wd+kx past a pixel's window origin.
// The microkernel builds it once per K-block from incremental counters,
// so a block may start mid-run, and stages each row through it: that is
// the whole of lowering, and the band pass writes no im2row tile.
type convTaps struct {
	off    [qgemmKC]int
	ky, kx [qgemmKC]int32
}

// init makes t the taps of K indices [kc, kc+kb) of geometry geo.
func (t *convTaps) init(geo convGeom, kc, kb int) {
	kx, ky, ic := kc%geo.kw, kc/geo.kw%geo.kh, kc/(geo.kw*geo.kh)
	off := (ic*geo.h+ky)*geo.wd + kx
	for g := range kb {
		t.off[g], t.ky[g], t.kx[g] = off, int32(ky), int32(kx)
		off++
		if kx++; kx == geo.kw {
			kx, ky, off = 0, ky+1, off-geo.kw+geo.wd
			if ky == geo.kh {
				ky, off = 0, off+(geo.h-geo.kh)*geo.wd
			}
		}
	}
}

// window is where an output pixel's receptive field starts in the
// input: row iy and column ix of its (0, 0) tap (negative in the
// padding) and base = iy*wd+ix; inside is set when every tap is in bounds.
type window struct {
	base, iy, ix int
	inside       bool
}

// windows writes the windows of pixels plo, plo+1, ... into win, walking
// the output rows from one division.
func (j *bandJob) windows(win []window, plo int) {
	g, s := &j.geo, j.spec.Stride
	oy, ox := plo/g.wout, plo%g.wout
	for i := range win {
		iy, ix := oy*s-j.spec.PadH, ox*s-j.spec.PadW
		win[i] = window{base: iy*g.wd + ix, iy: iy, ix: ix,
			inside: iy >= 0 && ix >= 0 && iy+g.kh <= g.h && ix+g.kw <= g.wd}
		if ox++; ox == g.wout {
			oy, ox = oy+1, 0
		}
	}
}

// stageWindow writes the first len(dst) taps of t for window w, read
// from the codes x of a geo-shaped convolution, into dst (as int16 for
// the vector body, whose VPMADDWD takes int16 pairs): an interior
// window in one gather, one that touches padding tap by tap, a tap
// outside the plane stored as 0 (the zero-point of the symmetric
// scheme), so dirty scratch cannot leak.
func stageWindow[T int8 | int16](dst []T, x []int8, t *convTaps, w window, geo *convGeom) {
	if w.inside {
		xw := x[w.base:]
		for g, o := range t.off[:len(dst)] {
			dst[g] = T(xw[o])
		}
		return
	}
	for g, o := range t.off[:len(dst)] {
		if uint(w.iy+int(t.ky[g])) < uint(geo.h) && uint(w.ix+int(t.kx[g])) < uint(geo.wd) {
			dst[g] = T(x[w.base+o])
		} else {
			dst[g] = 0
		}
	}
}

// bandScratch is what one shard of the band pass borrows: the band's
// pixel-major accumulators and its pixels' windows. Pooled, so concurrent
// shards never share a buffer.
type bandScratch struct {
	acc []int32
	win [convBandPixels]window
}

var bandScratchPool = sync.Pool{New: func() any { return new(bandScratch) }}

// bandJob is the convolution a band pass is working on.
type bandJob struct {
	out  []float32 // [Cout, Hout*Wout]
	in   []int8    // [Cin, H, W]: the input's codes
	geo  convGeom
	spec Conv2DSpec
	pw   *PackedQWeights
	bias []float32
	// scales is the requantize scale per output channel; act and alpha
	// the fused activation.
	scales []float32
	act    Act
	alpha  float32

	fn func(lo, hi int)
}

// bandJobs lends each call its job, whose shard body is bound once: a
// closure built per call would be a heap allocation per convolution.
var bandJobs = sync.Pool{New: func() any {
	j := new(bandJob)
	j.fn = j.bands
	return j
}}

// convUnitPixels is the unit a band pass cuts chunks in: the pixels the
// vector body (qgemmUnitAVX2) takes at a time, two of the Go fallback's
// lane triples, so only a plane's last unit can leave the microkernel a
// short unit, or a short triple whose repeated pixels multiply into a
// sink.
const convUnitPixels = 6

// convBandPixels is how many output pixels a shard takes through GEMM →
// store at a time, so its input and accumulators (66 x Cout) are still in
// that core's cache when the next step reads them: 11 whole units.
const convBandPixels = 11 * convUnitPixels

// convUnitRange converts a chunk of units [lo, hi) of an m-pixel plane
// into the pixels it owns, the last unit's short remainder included.
func convUnitRange(lo, hi, m int) (plo, phi int) {
	return lo * convUnitPixels, min(hi*convUnitPixels, m)
}

// bands is the shard body: the output pixels of units [lo, hi).
func (j *bandJob) bands(lo, hi int) {
	j.pixels(convUnitRange(lo, hi, j.geo.hout*j.geo.wout))
}

// pixels computes output pixels [plo, phi) of every channel a band at a
// time on scratch of its own, multiplied into s.acc and stored. A band is
// never larger than the chunk, so a 7x7 plane still splits across cores.
func (j *bandJob) pixels(plo, phi int) {
	s := bandScratchPool.Get().(*bandScratch)
	for p0 := plo; p0 < phi; p0 += convBandPixels {
		p1 := min(p0+convBandPixels, phi)
		s.acc = growSlice(s.acc, (p1-p0)*j.pw.N)
		j.rowRange(s.acc, s.win[:], p0, p1)
		storeInt8(j, s.acc, p0, p1)
	}
	bandScratchPool.Put(s)
}

// run is the band pass: one pass over bands of output pixels. Above the
// MAC threshold one parallelFor hands out chunks of whole units, and
// whichever core claims a chunk takes each of its bands through GEMM and
// store before touching the next, so only the input and the finished
// output leave that core's cache. Bands write disjoint pixels and a
// pixel's value does not depend on which rows share its band, so the
// output does not depend on the cut. job carries everything but fn.
func (job bandJob) run() {
	j := bandJobs.Get().(*bandJob)
	job.fn = j.fn
	*j = job
	ncols, macsPerPixel := j.geo.hout*j.geo.wout, j.pw.K*j.pw.N
	if units := (ncols + convUnitPixels - 1) / convUnitPixels; ncols*macsPerPixel < parallelThresholdMACs {
		j.bands(0, units)
	} else {
		parallelFor(units, grainForMACs(convUnitPixels*macsPerPixel), j.fn)
	}
	*j = bandJob{fn: j.fn} // the pool must not keep the tensors alive
	bandJobs.Put(j)
}
