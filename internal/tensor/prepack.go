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
//     itself, read in place, and the microkernel accumulates into dst's
//     channel rows;
//   - every other FP32 convolution, and every int8 one, runs transposed,
//     here. rowsA is the im2row lowering, one row per output pixel, and
//     Wt the transposed weight matrix, which the packer reads out of W in
//     place. A band of pixels is lowered, multiplied into pixel-major
//     accumulators and stored back to channel-major with the epilogue.
//
// Here the weights are constant during inference, so they are what gets
// packed into the microkernel's interleaved panels, ahead of time by
// PackConvWeights / PackQConvWeights: a compiled program packs once — a
// grouped convolution once per group — and reuses the panels forever. Per
// output element the FP32 accumulation order depends only on the K
// blocking, and integer accumulation on nothing. Padding positions
// contribute +0.0 (both the zero-padded A row and the zero-filled panel
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
	// microkernel that accumulates one into rows [rlo, rhi) (gemmPanelRows,
	// qgemmPanelRows).
	packPanel func(panel []P, b []T, rs, cs, kc, kb, kb4, jc, jb int)
	panelRows func(dst []A, a []T, panel []P, k, n, kc, kb, jc, jb, rlo, rhi int)
	// store writes output pixels [p0, p1) of every channel from a band's
	// pixel-major accumulators, epilogue applied.
	store func(j *bandJob[T, P, A], acc []A, p0, p1 int)

	// scratch lends each shard a *bandScratch[T, A] and jobs each call its
	// *bandJob[T, P, A]: the storage stays with the pools, so a steady
	// stream of convolutions allocates nothing.
	scratch, jobs sync.Pool
}

var gemmFP32 = &gemm[float32, float32, float32]{kc: gemmKC, nc: gemmNC, mr: gemmMR,
	packPanel: packPanel, panelRows: gemmPanelRows, store: storeFP32,
	scratch: sync.Pool{New: func() any { return new(bandScratch[float32, float32]) }},
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

// rowRange computes output rows [rlo, rhi) of dst = a x B for a row-major
// a [m, pw.K] and the packed B operand, overwriting them: the one GEMM
// tile loop. Rows are zeroed first, then accumulated one panel at a time.
// A row's result does not depend on which rows share its range — every
// output element sees the same expression and K order in the FP32
// microkernel, and integer accumulation is exact — so callers may shard
// rows freely (the FP32 microkernel pairs rows, so on even boundaries:
// gemmPairRange).
func (g *gemm[T, P, A]) rowRange(dst []A, a []T, pw *Packed[P], rlo, rhi int) {
	k, n := pw.K, pw.N
	clear(dst[rlo*n : rhi*n])
	g.walkTiles(k, n, func(off, kc, kb, kb4, jc, jb int) {
		g.panelRows(dst, a, pw.Panels[off:off+kb4*jb], k, n, kc, kb, jc, jb, rlo, rhi)
	})
}

// im2rowPixels writes rows [plo, phi) of the im2row lowering of in
// (layout [cin, h, wd]) — the row-major [Hout*Wout, Cin*KH*KW] matrix
// with one row per output pixel — into tile, row p at
// tile[(p-plo)*rdim:]. Both transposed convolutions lower through it, the
// FP32 one float32 activations and the int8 one their codes (a pointwise
// int8 conv rounds its input into the band instead: quantizePixels).
// Every element is stored, padding positions as explicit zeros (also the int8
// zero-point of the symmetric scheme), so dirty scratch cannot leak. A
// window whose columns are all in bounds moves its kw taps per (channel,
// ky) in one loop, not a memmove call; only border windows test each tap.
func im2rowPixels[T int8 | float32](tile, in []T, cin, h, wd, kh, kw int, spec Conv2DSpec, wout, plo, phi int) {
	padH, padW := spec.padHW()
	rdim := cin * kh * kw
	oy, ox := plo/wout, plo%wout
	for p := plo; p < phi; p++ {
		dst := tile[(p-plo)*rdim : (p-plo+1)*rdim]
		ix0 := ox*spec.Stride - padW
		inside := ix0 >= 0 && ix0+kw <= wd
		r := 0
		for ic := 0; ic < cin; ic++ {
			for ky := 0; ky < kh; ky++ {
				iy := oy*spec.Stride + ky - padH
				if iy < 0 || iy >= h {
					clear(dst[r : r+kw])
					r += kw
					continue
				}
				src := in[(ic*h+iy)*wd : (ic*h+iy+1)*wd]
				if inside {
					for kx, v := range src[ix0 : ix0+kw] {
						dst[r+kx] = v
					}
					r += kw
					continue
				}
				for kx := 0; kx < kw; kx++ {
					ix := ix0 + kx
					if ix >= 0 && ix < wd {
						dst[r] = src[ix]
					} else {
						dst[r] = 0
					}
					r++
				}
			}
		}
		if ox++; ox == wout {
			oy, ox = oy+1, 0
		}
	}
}

// quantizePixels is the im2row lowering of a pointwise int8 conv, from
// its FP32 input: rows [plo, phi) of the transposed [cin, npix] input go
// into dst (row p at dst[(p-plo)*cin:]), each element rounded (quantCode)
// as it moves, with contiguous per-channel reads and no per-pixel div/mod.
// The band's tile is convBandPixels wide at most, so the destination
// rows' cache lines stay in L1 while consecutive channels scatter into
// them. T is int8.
func quantizePixels[T int8 | float32](dst []T, q quantJob, cin, npix, plo, phi int) {
	for ic := 0; ic < cin; ic++ {
		for t, v := range q.src[ic*npix+plo : ic*npix+phi] {
			dst[t*cin+ic] = T(quantCode(v, q.inv))
		}
	}
}

// bandScratch is what one shard of a GEMM convolution borrows: a band of
// im2row rows and the band's pixel-major accumulators. One pool per
// datatype serves every caller, so concurrent shards never share a
// buffer.
type bandScratch[T, A any] struct {
	rows []T
	acc  []A
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

// convBandPixels is how many output pixels a shard takes through lower →
// GEMM → store at a time, so a band's rows (64 x K elements: 6.9 KB of
// floats at MobileNet-v2's stem, K = 27, 410 KB at CifarNet's conv2,
// K = 1600) and its accumulators (64 x Cout) are still in that core's
// cache when the next step reads them.
const convBandPixels = 64

// bands is the shard body: the output pixels of row pairs [lo, hi) of
// every channel, a band at a time, on scratch of its own — lowered into
// s.rows, multiplied with the packed panels into s.acc, stored. A band is
// never larger than the chunk, so a 7x7 plane still splits across cores;
// chunks start on even pixels (gemmPairRange), so only the plane's last
// row can pair with the FP32 microkernel's sink. Neither kernel's result
// depends on the cut.
func (j *bandJob[T, P, A]) bands(lo, hi int) {
	ncols := j.geo.hout * j.geo.wout
	lo, hi = gemmPairRange(lo, hi, ncols)
	s := j.g.scratch.Get().(*bandScratch[T, A])
	for p0 := lo; p0 < hi; p0 += convBandPixels {
		p1 := min(p0+convBandPixels, hi)
		s.rows = growSlice(s.rows, (p1-p0)*j.pw.K)
		s.acc = growSlice(s.acc, (p1-p0)*j.pw.N)
		if j.quant.src != nil {
			quantizePixels(s.rows, j.quant, j.geo.cin, j.geo.h*j.geo.wd, p0, p1)
		} else {
			im2rowPixels(s.rows, j.in, j.geo.cin, j.geo.h, j.geo.wd, j.geo.kh, j.geo.kw, j.spec, j.geo.wout, p0, p1)
		}
		j.g.rowRange(s.acc, s.rows, j.pw, 0, p1-p0)
		j.g.store(j, s.acc, p0, p1)
	}
	j.g.scratch.Put(s)
}

// run is the GEMM convolution: one pass over bands of output pixels.
// Above the MAC threshold one parallelFor hands out chunks of pixels, and
// whichever core claims a chunk takes each of its bands through lowering,
// GEMM and store before touching the next, so only the input and the
// finished output leave that core's cache. Bands write disjoint pixels
// and a pixel's value does not depend on which rows share its band, so
// the output does not depend on the cut. job carries everything but g and
// fn.
func (g *gemm[T, P, A]) run(job bandJob[T, P, A]) {
	j := g.jobs.Get().(*bandJob[T, P, A])
	job.g, job.fn = g, j.fn
	*j = job
	ncols, macsPerPixel := j.geo.hout*j.geo.wout, j.pw.K*j.pw.N
	if pairs := (ncols + 1) / 2; ncols*macsPerPixel < parallelThresholdMACs {
		j.bands(0, pairs)
	} else {
		parallelFor(pairs, grainForMACs(2*macsPerPixel), j.fn)
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

// Conv2DPrepackedInto computes the im2row + prepacked-GEMM convolution
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
