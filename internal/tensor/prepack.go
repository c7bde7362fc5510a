package tensor

import (
	"fmt"
	"sync"
)

// This file is the ahead-of-time weight pre-packing layer for the FP32
// GEMM path. The per-call blocked kernel (gemm.go) packs its B operand
// into interleaved panels on every invocation; for inference the weight
// operand is constant, so a session can pack it once and reuse the
// panels forever. To make the *weights* the packed operand the
// convolution is executed in its transposed formulation:
//
//	unpacked: dst[cout, ncols]  = W[cout, rows]  x cols[rows, ncols]
//	prepacked: out[ncols, cout] = rowsA[ncols, rows] x Wt[rows, cout]
//
// where rowsA is the im2row lowering (one row per output pixel) and Wt
// is the transposed weight matrix, packed AOT by PackConvWeights. The
// blocked kernel's per-output-element accumulation order depends only
// on the K blocking, which is identical in both formulations, and
// float multiplication is bitwise commutative, so GemmPrepacked output
// element (nc, oc) is bitwise identical to unpacked element (oc, nc) —
// the property the prepack pass's zoo-wide equivalence gate pins down.
// Padding positions contribute +0.0 in both formulations (both the
// zero-padded A row and the zero-filled panel rows are positive zeros).
//
// FP32 Dense is deliberately NOT prepacked: DenseInto accumulates each
// dot product in four independent chains (matVecInto), an order the
// blocked GEMM cannot reproduce, so packing it would break the bitwise
// contract. The int8 twin (qprepack.go) packs Dense too, because
// integer accumulation is exact in any order.

// PackedWeights is a weight matrix packed AOT into the blocked-panel
// layout the FP32 GEMM microkernel consumes: the panels of every
// (N-block, K-block) tile of the transposed weight matrix, concatenated
// in the kernel's traversal order (jc outer, kc inner). Immutable after
// construction — clones of a graph share the pointer.
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

// PackGemmB packs a row-major [k, n] B matrix into the blocked-panel
// layout, one packPanel tile per (jc, kc) block in kernel traversal
// order. The result feeds GemmPrepacked.
func PackGemmB(b []float32, k, n int) *PackedWeights {
	if len(b) != k*n {
		panic(fmt.Sprintf("tensor: PackGemmB data length %d, want %d", len(b), k*n))
	}
	pw := &PackedWeights{K: k, N: n, Panels: make([]float32, packedPanelsLen(k, n, gemmKC, gemmNC, gemmMR))}
	off := 0
	for jc := 0; jc < n; jc += gemmNC {
		jb := min(n-jc, gemmNC)
		for kc := 0; kc < k; kc += gemmKC {
			kb := min(k-kc, gemmKC)
			kb4 := (kb + gemmMR - 1) &^ (gemmMR - 1)
			packPanel(pw.Panels[off:off+kb4*jb], b, n, kc, kb, kb4, jc, jb)
			off += kb4 * jb
		}
	}
	return pw
}

// PackConvWeights packs a [Cout, Cin, KH, KW] convolution weight tensor
// for the prepacked GEMM path: the weight matrix is transposed to
// [rows, Cout] (rows = Cin*KH*KW) and packed with PackGemmB. It returns
// nil for weights sparse enough that the unpacked path would take the
// zero-skipping kernel (pruned models keep their sparse fast path, and
// the prepacked dense kernel would not be bitwise identical to it).
func PackConvWeights(w *Tensor) *PackedWeights {
	if len(w.Shape) != 4 {
		panic(fmt.Sprintf("tensor: PackConvWeights wants rank-4 weights, got %v", w.Shape))
	}
	if zeroFraction(w.Data) >= sparseSkipFraction {
		return nil
	}
	cout := w.Shape[0]
	rows := w.Shape[1] * w.Shape[2] * w.Shape[3]
	wt := make([]float32, rows*cout)
	for oc := 0; oc < cout; oc++ {
		src := w.Data[oc*rows : (oc+1)*rows]
		for r, v := range src {
			wt[r*cout+oc] = v
		}
	}
	pw := PackGemmB(wt, rows, cout)
	pw.Shape = w.Shape.Clone()
	return pw
}

// GemmPrepacked computes dst = a x B for a row-major a [m, pw.K] and the
// prepacked B operand, overwriting all of dst[0:m*pw.N]. It is the
// blocked kernel with the per-call packPanel step deleted: each (jc, kc)
// tile's panel is a slice of pw.Panels at its precomputed offset. Large
// multiplies shard output rows across the worker pool; per-row results
// do not depend on the split, so output is bitwise identical to serial.
func GemmPrepacked(dst, a []float32, pw *PackedWeights, m int) {
	k, n := pw.K, pw.N
	if m*k*n >= parallelThresholdMACs {
		parallelFor(m, grainForMACs(k*n), func(lo, hi int) {
			gemmPrepackedRange(dst, a, pw, lo, hi)
		})
		return
	}
	gemmPrepackedRange(dst, a, pw, 0, m)
}

// gemmPrepackedRange computes output rows [rlo, rhi) of dst = a x B:
// matmulBlockedRange's tile loop over the same microkernel, with each
// tile's panel read from pw.Panels instead of packed on the spot.
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

// im2rowInto writes the im2row lowering of in into rowsA: a row-major
// [Hout*Wout, Cin*KH*KW] matrix, one row per output pixel (the
// transpose of im2colInto's layout), every element stored — padding
// positions are explicit zeros, so dirty scratch cannot leak. Large
// lowerings shard output-pixel rows across the worker pool; each row is
// written by exactly one chunk.
func im2rowInto(rowsA []float32, in *Tensor, kh, kw int, spec Conv2DSpec, hout, wout int) {
	rdim := in.Shape[0] * kh * kw
	if hout*wout*rdim < im2colElemsThreshold {
		im2rowPixels(rowsA, in, kh, kw, spec, hout, wout, 0, hout*wout)
		return
	}
	grain := (1 << 16) / rdim
	parallelFor(hout*wout, grain, func(lo, hi int) {
		im2rowPixels(rowsA, in, kh, kw, spec, hout, wout, lo, hi)
	})
}

// im2rowPixels writes rows [plo, phi) of the im2row matrix, where row
// index p maps to output pixel (oy = p/wout, ox = p%wout).
func im2rowPixels(rowsA []float32, in *Tensor, kh, kw int, spec Conv2DSpec, hout, wout, plo, phi int) {
	cin, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	padH, padW := spec.padHW()
	if kh == 1 && kw == 1 && spec.Stride == 1 && padH == 0 && padW == 0 {
		transposePixels(rowsA, in.Data, cin, h*wd, plo, phi)
		return
	}
	rdim := cin * kh * kw
	for p := plo; p < phi; p++ {
		oy, ox := p/wout, p%wout
		dst := rowsA[p*rdim : (p+1)*rdim]
		r := 0
		for ic := 0; ic < cin; ic++ {
			for ky := 0; ky < kh; ky++ {
				iy := oy*spec.Stride + ky - padH
				if iy < 0 || iy >= h {
					clear(dst[r : r+kw])
					r += kw
					continue
				}
				src := in.Data[(ic*h+iy)*wd : (ic*h+iy+1)*wd]
				for kx := 0; kx < kw; kx++ {
					ix := ox*spec.Stride + kx - padW
					if ix >= 0 && ix < wd {
						dst[r] = src[ix]
					} else {
						dst[r] = 0
					}
					r++
				}
			}
		}
	}
}

// transposeTile is how many pixels transposePixels moves per pass: 32
// floats is two cache lines of contiguous reads per channel, and the
// tile's destination rows (32 x cin floats) stay cache-resident while
// every channel scatters into them.
const transposeTile = 32

// transposePixels is the pointwise (1x1, stride 1, unpadded) lowering:
// there the im2row matrix is just the [cin, npix] input transposed, so
// rows [plo, phi) of dst[npix, cin] are filled a tile of pixels at a
// time with contiguous per-channel reads, no per-pixel div/mod and no
// per-tap bounds test.
func transposePixels(dst, src []float32, cin, npix, plo, phi int) {
	for p0 := plo; p0 < phi; p0 += transposeTile {
		p1 := min(p0+transposeTile, phi)
		out := dst[p0*cin : p1*cin]
		for ic := 0; ic < cin; ic++ {
			for t, v := range src[ic*npix+p0 : ic*npix+p1] {
				out[t*cin+ic] = v
			}
		}
	}
}

// convScratch is the FP32 GEMM convolutions' per-call scratch: the
// lowered activation matrix (im2row for the pre-packed kernel, im2col
// for the unpacked one) and the pre-packed kernel's transposed GEMM
// output. One package pool serves every caller, as qscratchPool does
// for the int8 kernels, so concurrent executors never share a buffer
// and a steady stream of convolutions reallocates nothing.
type convScratch struct {
	rows []float32
	outT []float32
}

var convScratchPool = sync.Pool{New: func() any { return new(convScratch) }}

func (s *convScratch) grow(nrows, nout int) {
	if cap(s.rows) < nrows {
		s.rows = make([]float32, nrows)
	}
	s.rows = s.rows[:nrows]
	if cap(s.outT) < nout {
		s.outT = make([]float32, nout)
	}
	s.outT = s.outT[:nout]
}

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

// convEpilogueTransposed writes output channel plane oc of dst from the
// transposed GEMM output: the gather transposes outT's (pixel, channel)
// layout back to channel-major, then the bias, affine, and activation
// sweeps run over the contiguous plane with exactly the per-element
// expressions of Conv2DGEMMFusedInto's epilogue, so prepacked output is
// bitwise identical to the unpacked fused (or plain bias-swept) path.
func convEpilogueTransposed(seg, outT []float32, oc, cout int, bias []float32, epi Epilogue) {
	for i := range seg {
		seg[i] = outT[i*cout+oc]
	}
	if bias != nil {
		b := bias[oc]
		for i := range seg {
			seg[i] += b
		}
	}
	if len(epi.Scale) > 0 {
		scale, shift := epi.Scale[oc], epi.Shift[oc]
		for i, v := range seg {
			seg[i] = v*scale + shift
		}
	}
	applyActInPlace(seg, epi.Act, epi.Alpha)
}

// convEpilogueSweep runs convEpilogueTransposed over every output
// channel, sharding channels across the worker pool when the output is
// large (each channel's plane is written by exactly one chunk, so the
// parallel sweep is bitwise identical to serial).
func convEpilogueSweep(dst, outT []float32, cout, ncols int, bias []float32, epi Epilogue) {
	if cout*ncols < parallelThresholdMACs {
		for oc := 0; oc < cout; oc++ {
			convEpilogueTransposed(dst[oc*ncols:(oc+1)*ncols], outT, oc, cout, bias, epi)
		}
		return
	}
	parallelFor(cout, grainForMACs(ncols), func(lo, hi int) {
		for oc := lo; oc < hi; oc++ {
			convEpilogueTransposed(dst[oc*ncols:(oc+1)*ncols], outT, oc, cout, bias, epi)
		}
	})
}

// Conv2DPrepackedInto computes the im2row + prepacked-GEMM convolution
// into a preallocated dst of shape [Cout, Hout, Wout], overwriting
// every element, with the bias/affine/activation epilogue applied
// during the transpose back to channel-major layout. A zero-value epi
// reproduces the plain GEMM conv (bias sweep only).
func Conv2DPrepackedInto(dst, in *Tensor, pw *PackedWeights, bias []float32, spec Conv2DSpec, epi Epilogue) {
	s := convScratchPool.Get().(*convScratch)
	s.runPrepacked(dst, in, pw, bias, spec, epi)
	convScratchPool.Put(s)
}

// runPrepacked is the FP32 pre-packed convolution body: lower the input,
// one GEMM against the packed panels, one epilogue sweep.
func (s *convScratch) runPrepacked(dst, in *Tensor, pw *PackedWeights, bias []float32, spec Conv2DSpec, epi Epilogue) {
	spec = spec.check()
	cout, kh, kw, hout, wout := prepackedConvDims(in, pw, spec)
	checkConvDst(dst, cout, hout, wout)
	checkEpilogueChannels(epi, cout)
	if bias != nil && len(bias) != cout {
		panic("tensor: prepacked conv bias length mismatch")
	}
	ncols := hout * wout
	s.grow(ncols*pw.K, ncols*cout)
	im2rowInto(s.rows, in, kh, kw, spec, hout, wout)
	GemmPrepacked(s.outT, s.rows, pw, ncols)
	convEpilogueSweep(dst.Data, s.outT, cout, ncols, bias, epi)
}
