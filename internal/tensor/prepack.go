package tensor

import (
	"fmt"
	"sync"
)

// This file is the GEMM convolution, once for both datatypes, in its
// transposed formulation. A convolution is a product of its weights
// W[cout, rows] and its lowered input, rows = Cin*KH*KW deep, and it can
// run either way round:
//
//	out[cout, ncols]  = W[cout, rows] x im2col[rows, ncols]    (channel-major)
//	outT[ncols, cout] = rowsA[ncols, rows] x Wt[rows, cout]    (transposed)
//
// Both keep each output element's expression: acc = +0, then per K-quad
// in K order acc += x0*w0 + x1*w1 + x2*w2 + x3*w3, the last quad padded
// with +0.0 on both sides, then the bias and the epilogue. IEEE products
// commute, so the two give the same bits, and which one runs is speed
// alone, decided from the geometry once, when bind packs the weights:
//
//   - a pointwise FP32 convolution (1x1, stride 1, unpadded: Pointwise)
//     runs channel-major (pointwise.go). Its im2col matrix is the input
//     itself and W the weights as they lie, both read in place, and the
//     microkernel accumulates into dst's channel rows;
//   - every other FP32 convolution, and every int8 one, runs transposed,
//     here. rowsA is the im2row matrix, one row per output pixel, never
//     written out: the microkernels stage its rows from the input as they
//     multiply them by Wt, the transposed weight matrix the packer reads
//     out of W in place. A band goes into pixel-major accumulators and is
//     stored back to channel-major with the epilogue.
//
// Here the weights are constant during inference, so they are what gets
// packed into the microkernel's interleaved panels, ahead of time by
// PackConvWeights / PackQConvWeights: a compiled program packs once — a
// grouped convolution once per group — and reuses the panels forever.
// A panel is a second copy of the weights, kept because these
// microkernels read a layout W does not have: quads of Wt's rows, or
// codes four columns to a K-quad. The channel-major kernel reads W's own
// rows, so it has no pack. Per
// output element the FP32 accumulation order depends only on the K
// blocking, and integer accumulation on nothing. Padding positions
// contribute +0.0 (both the staged padding taps and the zero-filled panel
// rows are positive zeros).
//
// What is per datatype is a gemm value (gemmFP32 here, gemmInt8 in
// qprepack.go) and nothing else: the K blocking (128 floats, or the 64
// bytes the int8 SWAR lanes can sum), the packer (interleaved quads, or
// signed bytes interleaved four columns at a time), the microkernel, and
// the store — FP32 gathers, adds the bias and runs the affine and
// activation; int8 requantizes, which has no affine stage.
//
// FP32 Dense is deliberately NOT prepacked: DenseInto accumulates each
// dot product in one chain (matVecRange), an order the blocked GEMM
// cannot reproduce, so packing it would break the bitwise contract.

// Packed is a weight matrix packed into the blocked-panel layout a GEMM
// microkernel consumes: the panel of every (N-block, K-block) tile of a
// [K, N] operand — for a convolution, the transposed filter bank —
// concatenated in the kernel's traversal order (walkTiles). P is the panel
// element: float32 under the FP32 kernel, an int8 code's byte under the
// int8 one. It is immutable after construction: every executor of a
// compiled program reads the same one.
type Packed[P float32 | byte] struct {
	// K and N are the GEMM dimensions of the packed operand: it stands
	// in for a [K, N] B matrix (K = Cin*KH*KW, N = Cout for convs; K = In,
	// N = Out for dense layers).
	K, N int
	// Shape is the conv weight shape, [Cout, Cin, KH, KW] ([Out, In, 1, 1]
	// for int8 dense), so kernel geometry derives from the pack alone.
	Shape Shape
	// Panels is the concatenated packed panel data.
	Panels []P
}

// PackedWeights is FP32 weights packed for the GEMM convolution.
type PackedWeights = Packed[float32]

// PackedQWeights is int8 weights packed for the QGEMM convolution and
// dense kernels (one byte per element, the int8 code).
type PackedQWeights = Packed[byte]

// gemm is what one datatype brings to the code both GEMM convolutions
// share. T is the element of the streamed A operand (activations, or
// their int8 codes), P of the packed panels, A of the accumulators.
type gemm[T int8 | float32, P float32 | byte, A any] struct {
	// kc and nc are the K- and N-block a panel covers, mr the K-interleave
	// a K-block is rounded up to.
	kc, nc, mr int
	// packPanel packs one tile (packPanel, packQPanel); panelRows is the
	// microkernel that accumulates one into the rows of the pixels whose
	// windows are win, staging their K-block from the job's input
	// (gemmPanelRows, qgemmPanelRows).
	packPanel func(panel []P, b []T, rs, cs, kc, kb, kb4, jc, jb int)
	panelRows func(dst []A, j *bandJob[T, P, A], win []window, panel []P, kc, kb, jc, jb int)
	// store writes output pixels [p0, p1) of every channel from a band's
	// pixel-major accumulators, epilogue applied.
	store func(j *bandJob[T, P, A], acc []A, p0, p1 int)

	// scratch lends each shard a *bandScratch[A] and jobs each call its
	// *bandJob[T, P, A]: the storage stays with the pools, so a steady
	// stream of convolutions allocates nothing.
	scratch, jobs sync.Pool
}

var gemmFP32 = &gemm[float32, float32, float32]{kc: gemmKC, nc: gemmNC, mr: gemmMR,
	packPanel: packPanel, panelRows: gemmPanelRows, store: storeFP32,
	scratch: sync.Pool{New: func() any { return new(bandScratch[float32]) }},
	jobs:    sync.Pool{New: newBandJob[float32, float32, float32]}}

// walkTiles calls fn for every (N-block, K-block) tile of a [k, n] packed
// operand — columns [jc, jc+jb) x rows [kc, kc+kb), kb rounded up to the
// interleave as kb4, its panel at Panels[off : off+kb4*jb] — jc outer, kc
// inner: the order panels are stored in and consumed in, which the packer,
// the tile loop and the length computation (a nil fn) all take from here.
// It returns the total panel length.
func (g *gemm[T, P, A]) walkTiles(k, n int, fn func(off, kc, kb, kb4, jc, jb int)) int {
	off := 0
	for jc := 0; jc < n; jc += g.nc {
		jb := min(n-jc, g.nc)
		for kc := 0; kc < k; kc += g.kc {
			kb := min(k-kc, g.kc)
			kb4 := (kb + g.mr - 1) &^ (g.mr - 1)
			if fn != nil {
				fn(off, kc, kb, kb4, jc, jb)
			}
			off += kb4 * jb
		}
	}
	return off
}

// pack returns the panels of the [k, n] B operand whose element (r, c) is
// b[r*rs+c*cs] — a row-major B at strides (n, 1), an [N, K] weight matrix
// read in place as its transpose at (1, k): the one packer.
func (g *gemm[T, P, A]) pack(b []T, k, n, rs, cs int, shape Shape) *Packed[P] {
	pw := &Packed[P]{K: k, N: n, Shape: shape, Panels: make([]P, g.walkTiles(k, n, nil))}
	g.walkTiles(k, n, func(off, kc, kb, kb4, jc, jb int) {
		g.packPanel(pw.Panels[off:off+kb4*jb], b, rs, cs, kc, kb, kb4, jc, jb)
	})
	return pw
}

// packWeights packs the transpose of a weight matrix w of the given shape,
// [n, k] with n its first axis (Cout or Out), read in place; the pack's
// Shape is the caller's. It is the whole of packing a convolution or dense
// weight.
func (g *gemm[T, P, A]) packWeights(w []T, shape Shape) *Packed[P] {
	n := shape[0]
	k := len(w) / n
	return g.pack(w, k, n, 1, k, shape)
}

// rowRange computes pixels [plo, phi) of out[p, :] = im2row(in)[p, :] x
// Wt into dst, pixel p's row at dst[(p-plo)*pw.N:], overwriting them:
// the one GEMM tile loop. The pixels' windows go into win once for every
// K-block; each microkernel stages its K-block of a row from the input.
// A row's result does not depend on which rows share its range — the
// FP32 expression and K order are fixed, integer sums exact — so callers
// may shard pixels freely.
func (j *bandJob[T, P, A]) rowRange(dst []A, win []window, plo, phi int) {
	k, n := j.pw.K, j.pw.N
	win = win[:phi-plo]
	j.windows(win, plo)
	clear(dst[:len(win)*n])
	j.g.walkTiles(k, n, func(off, kc, kb, kb4, jc, jb int) {
		j.g.panelRows(dst, j, win, j.pw.Panels[off:off+kb4*jb], kc, kb, jc, jb)
	})
}

// convTaps is K indices [kc, kc+kb) of a convolution's im2row row: tap
// g, input channel ic at kernel row ky and column kx, reads the input
// [cin, h, wd] at off[g] = (ic*h+ky)*wd+kx past a pixel's window origin.
// A microkernel builds it once per K-block from incremental counters, so
// a block may start mid-run, and stages each row through it: that is the
// whole of lowering, and the band pass writes no im2row tile.
type convTaps struct {
	off    [gemmKC]int
	ky, kx [gemmKC]int32
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
func (j *bandJob[T, P, A]) windows(win []window, plo int) {
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
// from the input x of a geo-shaped convolution, into dst: an interior
// window in one gather, one that touches padding tap by tap, a tap
// outside the plane stored as 0 (+0.0, or the int8 zero-point of the
// symmetric scheme), so dirty scratch cannot leak.
func stageWindow[T int8 | float32](dst, x []T, t *convTaps, w window, geo *convGeom) {
	if w.inside {
		xw := x[w.base:]
		for g, o := range t.off[:len(dst)] {
			dst[g] = xw[o]
		}
		return
	}
	for g, o := range t.off[:len(dst)] {
		if uint(w.iy+int(t.ky[g])) < uint(geo.h) && uint(w.ix+int(t.kx[g])) < uint(geo.wd) {
			dst[g] = x[w.base+o]
		} else {
			dst[g] = 0
		}
	}
}

// bandScratch is what one shard of a GEMM convolution borrows: the
// band's pixel-major accumulators and its pixels' windows. One pool per
// datatype serves every caller, so concurrent shards never share a
// buffer.
type bandScratch[A any] struct {
	acc []A
	win [convBandPixels]window
}

// bandJob is the convolution a band pass is working on.
type bandJob[T int8 | float32, P float32 | byte, A any] struct {
	g    *gemm[T, P, A]
	out  []float32 // [Cout, Hout*Wout]
	in   []T       // [Cin, H, W]: the activations, or their int8 codes
	geo  convGeom
	spec Conv2DSpec
	pw   *Packed[P]
	bias []float32
	// scales is the int8 requantize scale per output channel; epi the
	// fused epilogue, of which int8 has the activation only.
	scales []float32
	epi    Epilogue
	quant  quantJob // a pointwise int8 conv's FP32 input and 1/scale, in place of in

	fn func(lo, hi int)
}

// newBandJob makes a job with its shard body bound, once: a closure built
// per call would be a heap allocation per convolution.
func newBandJob[T int8 | float32, P float32 | byte, A any]() any {
	j := new(bandJob[T, P, A])
	j.fn = j.bands
	return j
}

// convUnitPixels is the unit a band pass cuts chunks in: two lane
// triples, three row pairs, so only a plane's last unit can leave a
// microkernel a short group whose repeated rows multiply into a sink.
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
func (j *bandJob[T, P, A]) bands(lo, hi int) {
	j.pixels(convUnitRange(lo, hi, j.geo.hout*j.geo.wout))
}

// pixels computes output pixels [plo, phi) of every channel a band at a
// time on scratch of its own, multiplied into s.acc and stored. A band is
// never larger than the chunk, so a 7x7 plane still splits across cores.
func (j *bandJob[T, P, A]) pixels(plo, phi int) {
	s := j.g.scratch.Get().(*bandScratch[A])
	for p0 := plo; p0 < phi; p0 += convBandPixels {
		p1 := min(p0+convBandPixels, phi)
		s.acc = growSlice(s.acc, (p1-p0)*j.pw.N)
		j.rowRange(s.acc, s.win[:], p0, p1)
		j.g.store(j, s.acc, p0, p1)
	}
	j.g.scratch.Put(s)
}

// run is the GEMM convolution: one pass over bands of output pixels.
// Above the MAC threshold one parallelFor hands out chunks of whole
// units, and whichever core claims a chunk takes each of its bands
// through GEMM and store before touching the next, so only the input and
// the finished output leave that core's cache. Bands write disjoint
// pixels and a pixel's value does not depend on which rows share its
// band, so the output does not depend on the cut. job carries everything
// but g and fn.
func (g *gemm[T, P, A]) run(job bandJob[T, P, A]) {
	j := g.jobs.Get().(*bandJob[T, P, A])
	job.g, job.fn = g, j.fn
	*j = job
	ncols, macsPerPixel := j.geo.hout*j.geo.wout, j.pw.K*j.pw.N
	if units := (ncols + convUnitPixels - 1) / convUnitPixels; ncols*macsPerPixel < parallelThresholdMACs {
		j.bands(0, units)
	} else {
		parallelFor(units, grainForMACs(convUnitPixels*macsPerPixel), j.fn)
	}
	*j = bandJob[T, P, A]{fn: j.fn} // the pool must not keep the tensors alive
	g.jobs.Put(j)
}

// storeFP32 writes pixels [p0, p1) of each output channel: the gather
// transposes acc's (pixel, channel) layout back to channel-major and adds
// the bias, then applyEpilogueSpan runs the affine and the activation
// over the 256 bytes just written — per element the expressions of the
// separate batch-norm and activation kernels, so fused output is bitwise
// identical to the unfused chain's.
func storeFP32(j *bandJob[float32, float32, float32], acc []float32, p0, p1 int) {
	cout, ncols := j.pw.N, j.geo.hout*j.geo.wout
	for oc := 0; oc < cout; oc++ {
		seg := j.out[oc*ncols+p0 : oc*ncols+p1]
		if j.bias == nil {
			for i := range seg {
				seg[i] = acc[i*cout+oc]
			}
		} else {
			b := j.bias[oc]
			for i := range seg {
				seg[i] = acc[i*cout+oc] + b
			}
		}
		applyEpilogueSpan(seg, oc, j.epi)
	}
}

// PackConvWeights packs a [Cout, Cin, KH, KW] convolution weight tensor
// for the prepacked GEMM path, into panels and a shape of its own.
func PackConvWeights(w *Tensor) *PackedWeights {
	if len(w.Shape) != 4 {
		panic(fmt.Sprintf("tensor: PackConvWeights wants rank-4 weights, got %v", w.Shape))
	}
	return gemmFP32.packWeights(w.Data, w.Shape.Clone())
}

// Conv2DPrepackedInto computes the transposed prepacked-GEMM convolution
// of any geometry into a preallocated dst of shape [Cout, Hout, Wout],
// overwriting every element, with the bias/affine/activation epilogue
// applied during the transpose back to channel-major layout (gemm.run).
// A zero-value epi reproduces the plain GEMM conv (bias sweep only). A
// compiled program runs a pointwise conv on PointwiseConvInto instead,
// which gives the same bits faster.
func Conv2DPrepackedInto(dst, in *Tensor, pw *PackedWeights, bias []float32, spec Conv2DSpec, epi Epilogue) {
	spec = spec.check()
	geo := convGeometry(dst, in, pw.Shape, bias, spec)
	checkEpilogueChannels(epi, geo.cout)
	gemmFP32.run(bandJob[float32, float32, float32]{out: dst.Data, in: in.Data, geo: geo, spec: spec, pw: pw, bias: bias, epi: epi})
}
