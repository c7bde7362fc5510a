package tensor

import "fmt"

// This file is the int8 twin of prepack.go: packing of quantized weights
// into the biased column-major panels the SWAR QGEMM microkernel
// consumes — ahead of time, or per call by the unpacked entry points in
// qconv.go — plus the transposed conv/dense kernels that execute against
// them. The transposed formulation makes the constant weight matrix the
// packed B operand (activations stream as A rows). Integer accumulation
// is exact in any order, so int8 results do not depend on the blocking at
// all, which is why int8 Dense packs too (its FP32 counterpart cannot).

// PackedQWeights is an int8 weight matrix packed into the QGEMM panel
// layout: +128-biased bytes, column-major per (N-block, K-block) tile,
// concatenated in kernel traversal order (jc outer, kc inner). One packed
// ahead of time is immutable after construction — graph clones share the
// pointer; the per-call pack refills a pooled one.
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
// panel layout. The result feeds QGemmPrepacked.
func PackQGemmB(b []int8, k, n int) *PackedQWeights {
	if len(b) != k*n {
		panic(fmt.Sprintf("tensor: PackQGemmB data length %d, want %d", len(b), k*n))
	}
	pq := new(PackedQWeights)
	pq.pack(b, k, n, n, 1, nil)
	return pq
}

// pack fills pq with the panels of the [k, n] B operand whose element
// (r, c) is b[r*rs+c*cs], one packQPanel tile per (jc, kc) block in
// kernel traversal order, in pq.Panels' storage when that is large
// enough: the one int8 packer, ahead of time or per call.
func (pq *PackedQWeights) pack(b []int8, k, n, rs, cs int, shape Shape) {
	*pq = PackedQWeights{K: k, N: n, Shape: shape,
		Panels: growSlice(pq.Panels, packedPanelsLen(k, n, qgemmKC, qgemmNC, qgemmMR))}
	off := 0
	for jc := 0; jc < n; jc += qgemmNC {
		jb := min(n-jc, qgemmNC)
		for kc := 0; kc < k; kc += qgemmKC {
			kb := min(k-kc, qgemmKC)
			kb4 := (kb + qgemmMR - 1) &^ (qgemmMR - 1)
			packQPanel(pq.Panels[off:off+kb4*jb], b, rs, cs, kc, kb, kb4, jc, jb)
			off += kb4 * jb
		}
	}
}

// packWeights packs the transpose of qw's [n, k] codes (n = its first
// axis: Cout or Out), read in place; pq.Shape is qw's own. It is the
// whole of packing a quantized conv or dense weight.
func (pq *PackedQWeights) packWeights(qw *QTensor) {
	n := qw.Shape[0]
	k := len(qw.Data) / n
	pq.pack(qw.Data, k, n, 1, k, qw.Shape)
}

// packQWeights packs qw ahead of time, into panels and a shape of its own.
func packQWeights(qw *QTensor) *PackedQWeights {
	pq := new(PackedQWeights)
	pq.packWeights(qw)
	pq.Shape = qw.Shape.Clone()
	return pq
}

// PackQConvWeights packs [Cout, Cin, KH, KW] int8 convolution weights
// for the prepacked QGEMM path (transposed to [Cin*KH*KW, Cout]).
func PackQConvWeights(qw *QTensor) *PackedQWeights {
	if len(qw.Shape) != 4 {
		panic(fmt.Sprintf("tensor: PackQConvWeights wants rank-4 weights, got %v", qw.Shape))
	}
	return packQWeights(qw)
}

// PackQDenseWeights packs an [Out, In] int8 dense weight matrix for the
// prepacked QGEMM path (transposed to [In, Out]).
func PackQDenseWeights(qw *QTensor) *PackedQWeights {
	if len(qw.Shape) != 2 {
		panic(fmt.Sprintf("tensor: PackQDenseWeights wants rank-2 weights, got %v", qw.Shape))
	}
	return packQWeights(qw)
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

// qgemmPrepackedRange computes output rows [rlo, rhi) of dst = a x B,
// overwriting them: the one int8 GEMM tile loop. Rows are zeroed first,
// then accumulated one (K-block, N-block) panel at a time, each read
// from pq.Panels at its offset in traversal order.
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
// expression is per element, so the output does not depend on the cut.
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

// Conv2DQPrepackedInto computes a 2-D convolution with int8-quantized,
// packed weights into a preallocated float32 dst of shape
// [Cout, Hout, Wout], overwriting every element: dynamic per-tensor
// symmetric activation quantization, then int8 im2row, QGEMM into int32
// accumulators and the fused requantize+bias+activation epilogue band by
// band (runConv) — one kernel call end to end. qw supplies the weight
// scales (per-tensor or per-channel); its codes are not read.
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

// DenseQPrepackedInto computes dst = act(wq*x + bias) for an
// int8-quantized, packed [Out, In] weight matrix, overwriting all of dst
// (length Out): the dynamically quantized input runs as a single A row
// through the QGEMM, then the requantize epilogue applies per output
// element.
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
		requantizeStrided(dst[i:i+1], s.acc[i:], 1, sx*qw.ScaleFor(i), b, act, alpha)
	}
	qscratchPool.Put(s)
}
