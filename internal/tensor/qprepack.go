package tensor

import "fmt"

// This file is the int8 twin of prepack.go: ahead-of-time packing of
// quantized weights into the biased column-major panels the SWAR QGEMM
// microkernel consumes, plus the transposed conv/dense entry points
// that execute against them. The transposed formulation makes the
// constant weight matrix the packed B operand (activations stream as A
// rows), so the per-call packQPanel work in qgemm.go disappears
// entirely. Integer accumulation is exact in any order, so — unlike the
// FP32 path, which must replicate the blocked kernel's float
// accumulation order — the int8 prepacked results are bitwise identical
// to the unpacked kernels by construction, including int8 Dense (whose
// FP32 counterpart stays unpacked).

// PackedQWeights is an int8 weight matrix packed AOT into the QGEMM
// panel layout: +128-biased bytes, column-major per (N-block, K-block)
// tile, concatenated in kernel traversal order (jc outer, kc inner).
// Immutable after construction — graph clones share the pointer.
type PackedQWeights struct {
	// K and N are the GEMM dimensions of the packed operand: it stands
	// in for a [K, N] int8 B matrix (K = Cin*KH*KW, N = Cout for convs;
	// K = In, N = Out for dense layers).
	K, N int
	// Shape is the original quantized weight shape, kept so the
	// executor can derive kernel geometry from the pack alone.
	Shape Shape
	// Panels is the concatenated packed panel data (one byte per
	// element, value = int8 + 128).
	Panels []byte
}

// Elems returns the packed panel byte count.
func (p *PackedQWeights) Elems() int { return len(p.Panels) }

// PackQGemmB packs a row-major [k, n] int8 B matrix into the QGEMM
// panel layout, one packQPanel tile per (jc, kc) block in kernel
// traversal order. The result feeds QGemmPrepacked.
func PackQGemmB(b []int8, k, n int) *PackedQWeights {
	if len(b) != k*n {
		panic(fmt.Sprintf("tensor: PackQGemmB data length %d, want %d", len(b), k*n))
	}
	pq := &PackedQWeights{K: k, N: n, Panels: make([]byte, packedPanelsLen(k, n, qgemmKC, qgemmNC, qgemmMR))}
	off := 0
	for jc := 0; jc < n; jc += qgemmNC {
		jb := min(n-jc, qgemmNC)
		for kc := 0; kc < k; kc += qgemmKC {
			kb := min(k-kc, qgemmKC)
			kb4 := (kb + qgemmMR - 1) &^ (qgemmMR - 1)
			packQPanel(pq.Panels[off:off+kb4*jb], b, n, kc, kb, kb4, jc, jb)
			off += kb4 * jb
		}
	}
	return pq
}

// packQTransposed packs the transpose of a row-major [n, k] int8 matrix
// (so the packed operand is [k, n]) — the shared core of the conv and
// dense weight packers.
func packQTransposed(data []int8, n, k int, shape Shape) *PackedQWeights {
	bt := make([]int8, k*n)
	for row := 0; row < n; row++ {
		src := data[row*k : (row+1)*k]
		for c, v := range src {
			bt[c*n+row] = v
		}
	}
	pq := PackQGemmB(bt, k, n)
	pq.Shape = shape.Clone()
	return pq
}

// PackQConvWeights packs [Cout, Cin, KH, KW] int8 convolution weights
// for the prepacked QGEMM path (transposed to [Cin*KH*KW, Cout]).
func PackQConvWeights(qw *QTensor) *PackedQWeights {
	if len(qw.Shape) != 4 {
		panic(fmt.Sprintf("tensor: PackQConvWeights wants rank-4 weights, got %v", qw.Shape))
	}
	cout := qw.Shape[0]
	rows := qw.Shape[1] * qw.Shape[2] * qw.Shape[3]
	return packQTransposed(qw.Data, cout, rows, qw.Shape)
}

// PackQDenseWeights packs an [Out, In] int8 dense weight matrix for the
// prepacked QGEMM path (transposed to [In, Out]).
func PackQDenseWeights(qw *QTensor) *PackedQWeights {
	if len(qw.Shape) != 2 {
		panic(fmt.Sprintf("tensor: PackQDenseWeights wants rank-2 weights, got %v", qw.Shape))
	}
	return packQTransposed(qw.Data, qw.Shape[0], qw.Shape[1], qw.Shape)
}

// QGemmPrepacked computes dst = a x B for a row-major int8 a [m, pq.K]
// and the prepacked B operand, overwriting all of dst[0:m*pq.N]. Like
// QGEMM it shards large multiplies by row pairs to keep the SWAR
// two-rows-per-int64 pairing on even boundaries; results are identical
// to any split because integer accumulation is exact.
func QGemmPrepacked(dst []int32, a []int8, pq *PackedQWeights, m int) {
	k, n := pq.K, pq.N
	if m*k*n < parallelThresholdMACs {
		qgemmPrepackedRange(dst, a, pq, 0, m)
		return
	}
	pairs := (m + 1) / 2
	parallelFor(pairs, grainForMACs(2*k*n), func(lo, hi int) {
		rlo, rhi := qgemmPairRange(lo, hi, m)
		qgemmPrepackedRange(dst, a, pq, rlo, rhi)
	})
}

// qgemmPrepackedRange computes output rows [rlo, rhi) of dst = a x B:
// qgemmBlockedRange's tile loop over the same row-staging loop, with
// each tile's panel read from pq.Panels instead of packed on the spot.
func qgemmPrepackedRange(dst []int32, a []int8, pq *PackedQWeights, rlo, rhi int) {
	k, n := pq.K, pq.N
	for i := rlo; i < rhi; i++ {
		clear(dst[i*n : (i+1)*n])
	}
	off := 0
	for jc := 0; jc < n; jc += qgemmNC {
		jb := min(n-jc, qgemmNC)
		for kc := 0; kc < k; kc += qgemmKC {
			kb := min(k-kc, qgemmKC)
			kb4 := (kb + qgemmMR - 1) &^ (qgemmMR - 1)
			qgemmPanelRows(dst, a, pq.Panels[off:off+kb4*jb], k, n, kc, kb, jc, jb, rlo, rhi)
			off += kb4 * jb
		}
	}
}

// requantizeStrided is requantizeInto over a strided accumulator view:
// dst[i] is computed from acc[i*stride] with exactly the per-element
// expressions of requantizeInto, so the transposed prepacked path's
// outputs are bitwise identical to the unpacked epilogue's.
func requantizeStrided(dst []float32, acc []int32, stride int, scale float32, bias float32, act Act, alpha float32) {
	switch act {
	case ActNone:
		for i := range dst {
			dst[i] = float32(acc[i*stride])*scale + bias
		}
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
		// The transcendental activations share requantizeInto's exact
		// expressions via a per-element forwarding call.
		for i := range dst {
			requantizeInto(dst[i:i+1], acc[i*stride:i*stride+1], scale, bias, act, alpha)
		}
	}
}

// prepackedQConvDims validates the input against the packed weights and
// returns (cin, h, w, cout, kh, kw, hout, wout).
func prepackedQConvDims(in *Tensor, pq *PackedQWeights, spec Conv2DSpec) (int, int, int, int, int, int, int, int) {
	if len(pq.Shape) != 4 {
		panic(fmt.Sprintf("tensor: prepacked qconv weights carry shape %v, want rank 4", pq.Shape))
	}
	cin, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	cout, wcin, kh, kw := pq.Shape[0], pq.Shape[1], pq.Shape[2], pq.Shape[3]
	if cin != wcin {
		panic(fmt.Sprintf("tensor: prepacked qconv channel mismatch: input %v weights %v", in.Shape, pq.Shape))
	}
	hout, wout := spec.OutDims(h, wd, kh, kw)
	return cin, h, wd, cout, kh, kw, hout, wout
}

// qconvJob is the convolution a scratch's band pass is working on: the
// lowering and the accumulators are (Hout*Wout)-row matrices, out is the
// destination's data and the requantize scale of channel oc is
// scales[oc].
type qconvJob struct {
	out                            []float32
	pq                             *PackedQWeights
	bias                           []float32
	spec                           Conv2DSpec
	cin, h, wd, kh, kw, hout, wout int
	act                            Act
	alpha                          float32
}

// requantTile is how many pixels of a band are requantized per sweep
// over the output channels: 64 accumulator rows are still in cache from
// the GEMM, and each channel gets a 256-byte contiguous store.
const requantTile = 64

// runConv quantizes the input with its dynamic scale, then cuts the
// output-pixel rows into row-pair-aligned bands and runs each band
// through lower → QGEMM → requantize on whichever core picks it up, so a
// band's slices of cols and acc never leave that core's cache between
// the three steps. Bands write disjoint rows of cols and acc and
// disjoint pixels of out. Integer accumulation is exact and every float
// expression is per element, so the output does not depend on the cut —
// it is Conv2DQInt8Into's, bit for bit.
func (s *qscratch) runConv(in []float32, qw *QTensor) {
	j := &s.conv
	k, cout := j.pq.K, j.pq.N
	rows := j.hout * j.wout
	s.grow(len(in), rows*k, rows*cout)
	s.scales = growSlice(s.scales, cout)
	sx := s.quantize(s.qin, in)
	for oc := range s.scales {
		s.scales[oc] = sx * qw.ScaleFor(oc)
	}
	pairs := (rows + 1) / 2
	if rows*k*cout < parallelThresholdMACs {
		s.convBand(0, pairs)
	} else {
		parallelFor(pairs, grainForMACs(2*k*cout), s.convFn)
	}
	s.conv = qconvJob{}
}

// convBand computes the output pixels of row pairs [lo, hi).
func (s *qscratch) convBand(lo, hi int) {
	j := &s.conv
	cout := j.pq.N
	ncols := j.hout * j.wout
	plo, phi := qgemmPairRange(lo, hi, ncols)
	im2rowPixels(s.cols[plo*j.pq.K:], s.qin, j.cin, j.h, j.wd, j.kh, j.kw, j.spec, j.wout, plo, phi)
	qgemmPrepackedRange(s.acc, s.cols, j.pq, plo, phi)
	for p0 := plo; p0 < phi; p0 += requantTile {
		p1 := min(p0+requantTile, phi)
		for oc, scale := range s.scales {
			var b float32
			if j.bias != nil {
				b = j.bias[oc]
			}
			requantizeStrided(j.out[oc*ncols+p0:oc*ncols+p1], s.acc[p0*cout+oc:],
				cout, scale, b, j.act, j.alpha)
		}
	}
}

// Conv2DQPrepackedInto is Conv2DQInt8Into against AOT-packed weights:
// dynamic activation quantization, then int8 im2row, prepacked QGEMM
// and the fused requantize+bias+activation epilogue band by band
// (runConv). qw supplies the weight scales (per-tensor or per-channel);
// its codes are not read.
func Conv2DQPrepackedInto(dst, in *Tensor, pq *PackedQWeights, qw *QTensor, bias []float32, spec Conv2DSpec, act Act, alpha float32) {
	spec = spec.check()
	cin, h, wd, cout, kh, kw, hout, wout := prepackedQConvDims(in, pq, spec)
	if bias != nil && len(bias) != cout {
		panic("tensor: prepacked qconv bias length mismatch")
	}
	checkConvDst(dst, cout, hout, wout)
	s := qscratchPool.Get().(*qscratch)
	s.conv = qconvJob{out: dst.Data, pq: pq, bias: bias, spec: spec,
		cin: cin, h: h, wd: wd, kh: kh, kw: kw, hout: hout, wout: wout, act: act, alpha: alpha}
	s.runConv(in.Data, qw)
	qscratchPool.Put(s)
}

// DenseQPrepackedInto is DenseQInt8Into against AOT-packed weights: the
// quantized input runs as a single A row through the prepacked QGEMM
// (integer-exact, so identical to the unpacked matvec), then the
// requantize epilogue applies per output element.
func DenseQPrepackedInto(dst []float32, pq *PackedQWeights, qw *QTensor, bias, x []float32, act Act, alpha float32) {
	if len(pq.Shape) != 2 || pq.K != len(x) {
		panic(fmt.Sprintf("tensor: DenseQPrepacked shape mismatch: %v x vec(%d)", pq.Shape, len(x)))
	}
	m := pq.N
	if len(dst) != m {
		panic("tensor: DenseQPrepacked dst length mismatch")
	}
	if bias != nil && len(bias) != m {
		panic("tensor: DenseQPrepacked bias length mismatch")
	}
	s := qscratchPool.Get().(*qscratch)
	s.grow(pq.K, 0, m)
	sx := s.quantize(s.qin, x)
	QGemmPrepacked(s.acc, s.qin, pq, 1)
	for i := range dst {
		var b float32
		if bias != nil {
			b = bias[i]
		}
		requantizeInto(dst[i:i+1], s.acc[i:i+1], sx*qw.ScaleFor(i), b, act, alpha)
	}
	qscratchPool.Put(s)
}
