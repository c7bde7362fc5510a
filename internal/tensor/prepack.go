package tensor

import (
	"fmt"
	"sync"
)

// This file is the FP32 GEMM convolution. Its weight operand is constant
// during inference, so it is what gets packed into the microkernel's
// interleaved panels — ahead of time by PackConvWeights (a session packs
// once and reuses the panels forever) or, for a node nobody packed, on
// every call by Conv2DGEMMFusedInto; either way one kernel runs
// (Conv2DPrepackedInto). To make the *weights* the packed operand the
// convolution is executed in its transposed formulation:
//
//	out[ncols, cout] = rowsA[ncols, rows] x Wt[rows, cout]
//
// where rowsA is the im2row lowering (one row per output pixel) and Wt
// is the transposed weight matrix, which the packer reads out of
// W[cout, rows] in place. Per output element the accumulation order
// depends only on the K blocking, so when the panels were built changes
// no bit — the property the zoo-wide packed-vs-unpacked gate pins down.
// Padding positions contribute +0.0 (both the zero-padded A row and the
// zero-filled panel rows are positive zeros).
//
// FP32 Dense is deliberately NOT prepacked: DenseInto accumulates each
// dot product in four independent chains (matVecInto), an order the
// blocked GEMM cannot reproduce, so packing it would break the bitwise
// contract. The int8 twin (qprepack.go) packs Dense too, because
// integer accumulation is exact in any order.

// PackedWeights is a weight matrix packed into the blocked-panel layout
// the FP32 GEMM microkernel consumes: the panels of every (N-block,
// K-block) tile of the transposed weight matrix, concatenated in the
// kernel's traversal order (jc outer, kc inner). One packed ahead of time
// is immutable after construction — clones of a graph share the pointer;
// the per-call pack refills a pooled one.
type PackedWeights struct {
	// K and N are the GEMM dimensions of the packed operand: it stands
	// in for a [K, N] B matrix (K = Cin*KH*KW, N = Cout for convs).
	K, N int
	// Shape is the original weight tensor shape ([Cout, Cin, KH, KW]
	// for convs), kept so the executor can derive conv geometry without
	// consulting the FP32 weights.
	Shape Shape
	// Panels is the concatenated packed panel data.
	Panels []float32
}

// Elems returns the packed panel element count (the memory cost of the
// pre-pack, within rounding of the original weight count).
func (p *PackedWeights) Elems() int { return len(p.Panels) }

// packedPanelsLen returns the total panel length for a [k, n] B operand
// under the FP32 blocking: each (jc, kc) tile stores kb4 x jb elements.
func packedPanelsLen(k, n, kc0, nc0, mr int) int {
	total := 0
	for jc := 0; jc < n; jc += nc0 {
		jb := min(n-jc, nc0)
		for kc := 0; kc < k; kc += kc0 {
			kb := min(k-kc, kc0)
			kb4 := (kb + mr - 1) &^ (mr - 1)
			total += kb4 * jb
		}
	}
	return total
}

// pack fills pw with the panels of the [k, n] B operand whose element
// (r, c) is b[r*rs+c*cs], one packPanel tile per (jc, kc) block in kernel
// traversal order, in pw.Panels' storage when that is large enough: the
// one FP32 packer, ahead of time or per call.
func (pw *PackedWeights) pack(b []float32, k, n, rs, cs int, shape Shape) {
	*pw = PackedWeights{K: k, N: n, Shape: shape,
		Panels: growSlice(pw.Panels, packedPanelsLen(k, n, gemmKC, gemmNC, gemmMR))}
	off := 0
	for jc := 0; jc < n; jc += gemmNC {
		jb := min(n-jc, gemmNC)
		for kc := 0; kc < k; kc += gemmKC {
			kb := min(k-kc, gemmKC)
			kb4 := (kb + gemmMR - 1) &^ (gemmMR - 1)
			packPanel(pw.Panels[off:off+kb4*jb], b, rs, cs, kc, kb, kb4, jc, jb)
			off += kb4 * jb
		}
	}
}

// packConv packs the [rows, Cout] transpose of w's filters (rows =
// Cin*KH*KW), read out of w.Data in place; pw.Shape is w's own. It is the
// whole of packing a convolution, ahead of time (PackConvWeights) or per
// call (Conv2DGEMMFusedInto).
func (pw *PackedWeights) packConv(w *Tensor) {
	rows := w.Shape[1] * w.Shape[2] * w.Shape[3]
	pw.pack(w.Data, rows, w.Shape[0], 1, rows, w.Shape)
}

// PackGemmB packs a row-major [k, n] B matrix into the blocked-panel
// layout. The result feeds gemmPrepackedRange.
func PackGemmB(b []float32, k, n int) *PackedWeights {
	if len(b) != k*n {
		panic(fmt.Sprintf("tensor: PackGemmB data length %d, want %d", len(b), k*n))
	}
	pw := new(PackedWeights)
	pw.pack(b, k, n, n, 1, nil)
	return pw
}

// PackConvWeights packs a [Cout, Cin, KH, KW] convolution weight tensor
// for the prepacked GEMM path, into panels and a shape of its own. It
// returns nil for weights sparse enough that Conv2DGEMMFusedInto may take
// the zero-skipping kernel (pruned models keep their sparse fast path,
// and the dense panel kernel would not be bitwise identical to it).
func PackConvWeights(w *Tensor) *PackedWeights {
	if len(w.Shape) != 4 {
		panic(fmt.Sprintf("tensor: PackConvWeights wants rank-4 weights, got %v", w.Shape))
	}
	if zeroFraction(w.Data) >= sparseSkipFraction {
		return nil
	}
	pw := new(PackedWeights)
	pw.packConv(w)
	pw.Shape = w.Shape.Clone()
	return pw
}

// gemmPrepackedRange computes output rows [rlo, rhi) of dst = a x B for a
// row-major a [m, pw.K] and the packed B operand, overwriting them: the
// one FP32 GEMM tile loop. Rows are zeroed first, then accumulated one
// (K-block, N-block) panel at a time, each read from pw.Panels at its
// offset in traversal order. A row's result does not depend on which
// rows share its range, so callers may shard rows freely.
func gemmPrepackedRange(dst, a []float32, pw *PackedWeights, rlo, rhi int) {
	k, n := pw.K, pw.N
	for i := rlo; i < rhi; i++ {
		clear(dst[i*n : (i+1)*n])
	}
	off := 0
	for jc := 0; jc < n; jc += gemmNC {
		jb := min(n-jc, gemmNC)
		for kc := 0; kc < k; kc += gemmKC {
			kb := min(k-kc, gemmKC)
			kb4 := (kb + gemmMR - 1) &^ (gemmMR - 1)
			gemmPanelRows(dst, a, pw.Panels[off:off+kb4*jb], k, n, kc, kb, jc, jb, rlo, rhi)
			off += kb4 * jb
		}
	}
}

// im2rowPixels writes rows [plo, phi) of the im2row lowering of in
// (layout [cin, h, wd]) — the row-major [Hout*Wout, Cin*KH*KW] matrix
// with one row per output pixel, the transpose of im2colInto's layout —
// into tile, row p at tile[(p-plo)*rdim:]. Both pre-packed convolutions
// lower through it, the FP32 one float32 activations and the int8 one
// their codes. Every element is stored, padding positions as explicit
// zeros (also the int8 zero-point of the symmetric scheme), so dirty
// scratch cannot leak. A window whose columns are all in bounds copies
// its kw taps per (channel, ky) at once; only border windows test each
// tap.
func im2rowPixels[T int8 | float32](tile, in []T, cin, h, wd, kh, kw int, spec Conv2DSpec, wout, plo, phi int) {
	padH, padW := spec.padHW()
	if kh == 1 && kw == 1 && spec.Stride == 1 && padH == 0 && padW == 0 {
		transposePixels(tile, in, cin, h*wd, plo, phi)
		return
	}
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
					copy(dst[r:r+kw], src[ix0:ix0+kw])
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

// transposeTile is how many pixels transposePixels moves per pass: 64
// contiguous elements per channel read (a cache line of int8, four of
// float32), and the 64 destination rows' current cache lines stay in L1
// while consecutive channels scatter into them.
const transposeTile = 64

// transposePixels is the pointwise (1x1, stride 1, unpadded) lowering:
// there the im2row matrix is just the [cin, npix] input transposed, so
// rows [plo, phi) go into dst (row p at dst[(p-plo)*cin:]) a tile of
// pixels at a time with contiguous per-channel reads, no per-pixel
// div/mod and no per-tap bounds test.
func transposePixels[T int8 | float32](dst, src []T, cin, npix, plo, phi int) {
	for p0 := plo; p0 < phi; p0 += transposeTile {
		p1 := min(p0+transposeTile, phi)
		out := dst[(p0-plo)*cin : (p1-plo)*cin]
		for ic := 0; ic < cin; ic++ {
			for t, v := range src[ic*npix+p0 : ic*npix+p1] {
				out[t*cin+ic] = v
			}
		}
	}
}

// convScratch is what one shard of an FP32 GEMM convolution borrows: the
// lowered activations — a band of im2row rows, or the zero-skipping
// convolution's whole im2col matrix — and the band's transposed GEMM
// output. One package pool serves every caller, as qscratchPool does for
// the int8 kernels, so concurrent shards never share a buffer and a
// steady stream of convolutions reallocates nothing.
type convScratch struct {
	rows []float32
	outT []float32
}

var convScratchPool = sync.Pool{New: func() any { return new(convScratch) }}

func (s *convScratch) grow(nrows, nout int) {
	s.rows = growSlice(s.rows, nrows)
	s.outT = growSlice(s.outT, nout)
}

// packScratch is what an unpacked entry point borrows to pack its
// constant operand per call. The panels stay with the pool, so a steady
// stream of unpacked kernels allocates nothing; one pool serves both
// datatypes, a call using the field of its own.
type packScratch struct {
	pw PackedWeights
	pq PackedQWeights
}

var packScratchPool = sync.Pool{New: func() any { return new(packScratch) }}

// prepackedConvDims validates the input against the packed weights and
// returns (cout, kh, kw, hout, wout).
func prepackedConvDims(in *Tensor, pw *PackedWeights, spec Conv2DSpec) (int, int, int, int, int) {
	if len(pw.Shape) != 4 {
		panic(fmt.Sprintf("tensor: prepacked conv weights carry shape %v, want rank 4", pw.Shape))
	}
	cin, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	cout, wcin, kh, kw := pw.Shape[0], pw.Shape[1], pw.Shape[2], pw.Shape[3]
	if cin != wcin {
		panic(fmt.Sprintf("tensor: prepacked conv channel mismatch: input %v weights %v", in.Shape, pw.Shape))
	}
	hout, wout := spec.OutDims(h, wd, kh, kw)
	return cout, kh, kw, hout, wout
}

// convJob is the pre-packed convolution a band pass is working on, with
// the shard body as a function bound once, when the job is made: a
// closure built per call would be a heap allocation per convolution.
type convJob struct {
	out                 []float32
	in                  *Tensor
	pw                  *PackedWeights
	bias                []float32
	spec                Conv2DSpec
	epi                 Epilogue
	kh, kw, wout, ncols int // ncols = Hout*Wout, the output pixels

	fn func(lo, hi int)
}

var convJobPool = sync.Pool{New: func() any {
	j := new(convJob)
	j.fn = j.bands
	return j
}}

// convBandPixels is how many output pixels a shard takes through lower →
// GEMM → epilogue at a time: one transposeTile, so a band's rows (64 x K
// floats: 240 KB at MobileNet-v2's widest K, 960) and its transposed
// output (64 x Cout) are still in that core's cache when the next step
// reads them.
const convBandPixels = transposeTile

// bands is the shard body: the output pixels of row pairs [lo, hi) of
// every channel, a band at a time, on scratch of its own. A band is
// never larger than the chunk, so a 7x7 plane still splits across cores;
// chunks start on even pixels, so only the plane's last row can take the
// microkernel's slower one-row form.
func (j *convJob) bands(lo, hi int) {
	lo, hi = qgemmPairRange(lo, hi, j.ncols)
	s := convScratchPool.Get().(*convScratch)
	for p0 := lo; p0 < hi; p0 += convBandPixels {
		j.band(s, p0, min(p0+convBandPixels, hi))
	}
	convScratchPool.Put(s)
}

// band lowers output pixels [p0, p1) into s.rows, multiplies them with
// the packed panels into s.outT, and writes those pixels of each output
// channel: the gather transposes outT's (pixel, channel) layout back to
// channel-major and adds the bias, then applyEpilogueSpan runs the
// affine and the activation over the 256 bytes just written — per
// element the expressions of the separate batch-norm and activation
// kernels, so fused output is bitwise identical to the unfused chain's.
func (j *convJob) band(s *convScratch, p0, p1 int) {
	n, cout, ncols := p1-p0, j.pw.N, j.ncols
	s.grow(n*j.pw.K, n*cout)
	im2rowPixels(s.rows, j.in.Data, j.in.Shape[0], j.in.Shape[1], j.in.Shape[2], j.kh, j.kw, j.spec, j.wout, p0, p1)
	gemmPrepackedRange(s.outT, s.rows, j.pw, 0, n)
	for oc := 0; oc < cout; oc++ {
		seg := j.out[oc*ncols+p0 : oc*ncols+p1]
		if j.bias == nil {
			for i := range seg {
				seg[i] = s.outT[i*cout+oc]
			}
		} else {
			b := j.bias[oc]
			for i := range seg {
				seg[i] = s.outT[i*cout+oc] + b
			}
		}
		applyEpilogueSpan(seg, oc, j.epi)
	}
}

// Conv2DPrepackedInto computes the im2row + prepacked-GEMM convolution
// into a preallocated dst of shape [Cout, Hout, Wout], overwriting
// every element, with the bias/affine/activation epilogue applied
// during the transpose back to channel-major layout. A zero-value epi
// reproduces the plain GEMM conv (bias sweep only).
//
// It is one pass over bands of output pixels (the FP32 twin of
// qscratch.runConv): above the MAC threshold one parallelFor hands out
// chunks of pixels, and whichever core claims a chunk takes each of its
// bands through lowering, GEMM and epilogue before touching the next, so
// only the input and the finished output leave that core's cache. Bands
// write disjoint pixels and a pixel's value does not depend on which
// rows share its band, so the output does not depend on the cut.
func Conv2DPrepackedInto(dst, in *Tensor, pw *PackedWeights, bias []float32, spec Conv2DSpec, epi Epilogue) {
	spec = spec.check()
	cout, kh, kw, hout, wout := prepackedConvDims(in, pw, spec)
	checkConvDst(dst, cout, hout, wout)
	checkEpilogueChannels(epi, cout)
	if bias != nil && len(bias) != cout {
		panic("tensor: prepacked conv bias length mismatch")
	}
	j := convJobPool.Get().(*convJob)
	fn := j.fn
	*j = convJob{out: dst.Data, in: in, pw: pw, bias: bias, spec: spec, epi: epi,
		kh: kh, kw: kw, wout: wout, ncols: hout * wout, fn: fn}
	if pairs := (j.ncols + 1) / 2; j.ncols*pw.K*cout < parallelThresholdMACs {
		j.bands(0, pairs)
	} else {
		parallelFor(pairs, grainForMACs(2*pw.K*cout), fn)
	}
	*j = convJob{fn: fn} // the pool must not keep the tensors alive
	convJobPool.Put(j)
}
