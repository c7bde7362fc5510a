package tensor

// GEMM blocking parameters. The kernel tiles over N (gemmNC columns) and
// K (gemmKC rows of B) so the packed B panel (gemmKC x gemmNC floats,
// 256 KiB) and the current output row stripe stay cache-resident while
// every A row streams over them. Within a panel, B rows are packed in
// interleaved groups of gemmMR so the microkernel reads gemmMR
// consecutive B values per output element and makes one write pass over
// the output row per gemmMR K-steps instead of per K-step.
const (
	gemmKC = 128 // K-block: rows of B packed per panel
	gemmNC = 512 // N-block: columns of B packed per panel
	gemmMR = 4   // K-interleave of the packed panel / microkernel unroll
)

// sparseSkipFraction is the zero fraction of the left operand above which
// MatMul dispatches to the zero-skipping kernel. Pruned-weight matrices
// (the paper's sparsity study) sit far above this; dense activations sit
// far below, so the dense path never pays a per-element branch.
const sparseSkipFraction = 0.6

// zeroFraction returns the fraction of exactly-zero entries in a.
func zeroFraction(a []float32) float64 {
	if len(a) == 0 {
		return 0
	}
	zeros := 0
	for _, v := range a {
		if v == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(len(a))
}

// gemmPanelRows is the register-tiled microkernel under the one FP32 tile
// loop (gemmPrepackedRange): it accumulates one packed (K-block, N-block)
// panel into output rows [rlo, rhi), dst[i, jc:jc+jb] += a[i, kc:kc+kb] x
// panel. Rows go two at a time so each panel quad is loaded once and
// feeds both rows' accumulators; an odd last row takes the one-row form.
// Every output element sees the same expression and the same K order
// whichever form handles its row, so results do not depend on how callers
// split rows. The A spans are staged into zero-padded buffers so the
// kb..kb4 tail multiplies the panel's +0.0 padding by +0.0.
func gemmPanelRows(dst, a, panel []float32, k, n, kc, kb, jc, jb, rlo, rhi int) {
	kb4 := (kb + gemmMR - 1) &^ (gemmMR - 1)
	var abuf0, abuf1 [gemmKC]float32
	i := rlo
	for ; i+1 < rhi; i += 2 {
		copy(abuf0[:kb], a[i*k+kc:i*k+kc+kb])
		copy(abuf1[:kb], a[(i+1)*k+kc:(i+1)*k+kc+kb])
		clear(abuf0[kb:kb4])
		clear(abuf1[kb:kb4])
		o0 := dst[i*n+jc : i*n+jc+jb]
		o1 := dst[(i+1)*n+jc : (i+1)*n+jc+jb]
		o1 = o1[:len(o0)]
		for g := 0; g < kb4; g += gemmMR {
			a0, a1, a2, a3 := abuf0[g], abuf0[g+1], abuf0[g+2], abuf0[g+3]
			b0, b1, b2, b3 := abuf1[g], abuf1[g+1], abuf1[g+2], abuf1[g+3]
			p := panel[g*jb : g*jb+jb*gemmMR]
			for j := range o0 {
				q := p[j*gemmMR : j*gemmMR+gemmMR : j*gemmMR+gemmMR]
				o0[j] += a0*q[0] + a1*q[1] + a2*q[2] + a3*q[3]
				o1[j] += b0*q[0] + b1*q[1] + b2*q[2] + b3*q[3]
			}
		}
	}
	if i < rhi {
		copy(abuf0[:kb], a[i*k+kc:i*k+kc+kb])
		clear(abuf0[kb:kb4])
		o0 := dst[i*n+jc : i*n+jc+jb]
		for g := 0; g < kb4; g += gemmMR {
			a0, a1, a2, a3 := abuf0[g], abuf0[g+1], abuf0[g+2], abuf0[g+3]
			p := panel[g*jb : g*jb+jb*gemmMR]
			for j := range o0 {
				q := p[j*gemmMR : j*gemmMR+gemmMR : j*gemmMR+gemmMR]
				o0[j] += a0*q[0] + a1*q[1] + a2*q[2] + a3*q[3]
			}
		}
	}
}

// packPanel copies rows [kc, kc+kb) x cols [jc, jc+jb) of a [K, N] B
// operand whose element (r, c) is b[r*rs+c*cs] — a row-major B at strides
// (n, 1), a [N, K] weight matrix read in place as its transpose at (1, k)
// — into panel, interleaved in groups of gemmMR K-rows: element
// (kc+g+r, jc+j) lands at panel[g*jb + j*gemmMR + r]. Every element of
// the panel is stored, rows past kb (up to the kb4 round-up) as +0.0, so
// the microkernel needs no K-remainder and a recycled panel's stale tail
// cannot leak. Columns go one at a time because that is the contiguous
// direction of the weight matrix, the operand packed per call.
func packPanel(panel, b []float32, rs, cs, kc, kb, kb4, jc, jb int) {
	for j := 0; j < jb; j++ {
		src := b[kc*rs+(jc+j)*cs:]
		col := panel[j*gemmMR:]
		for kk := 0; kk < kb; kk++ {
			col[(kk&^(gemmMR-1))*jb+kk&(gemmMR-1)] = src[kk*rs]
		}
		for kk := kb; kk < kb4; kk++ {
			col[(kk&^(gemmMR-1))*jb+kk&(gemmMR-1)] = 0
		}
	}
}

// matmulSparseInto is the zero-skipping ikj kernel for pruned left
// operands: rows of a with mostly-zero entries skip whole B rows. Dense
// inputs should use the panel kernel instead (MatMul dispatches).
func matmulSparseInto(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := dst[i*n : (i+1)*n]
		clear(orow)
		for kk, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// checkMatMul validates MatMul operand shapes and returns (m, k, n).
func checkMatMul(a, b *Tensor) (int, int, int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic("tensor: MatMul needs rank-2 operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	if b.Shape[0] != k {
		panic("tensor: MatMul inner dims differ")
	}
	return m, k, b.Shape[1]
}

// MatMulSerial multiplies a [M, K] by b [K, N] on the calling goroutine:
// b is packed into panels now, then every row goes through the panel
// kernel — the deterministic reference the parallel path is checked
// against.
func MatMulSerial(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(a, b)
	out := New(m, n)
	gemmPrepackedRange(out.Data, a.Data, PackGemmB(b.Data, k, n), 0, m)
	return out
}

// MatMulParallel multiplies a [M, K] by b [K, N] with output rows sharded
// across the persistent kernel worker pool in grain-bounded chunks over
// one set of panels. A row's result does not depend on the split, so the
// output is bitwise identical to MatMulSerial.
func MatMulParallel(a, b *Tensor) *Tensor {
	m, k, n := checkMatMul(a, b)
	out := New(m, n)
	pw := PackGemmB(b.Data, k, n)
	parallelFor(m, grainForMACs(k*n), func(lo, hi int) {
		gemmPrepackedRange(out.Data, a.Data, pw, lo, hi)
	})
	return out
}

// MatMulSparse multiplies a [M, K] by b [K, N] skipping zero entries of
// a — the pruned-weight fast path. Dense operands should use MatMul,
// which pays no per-element branch.
func MatMulSparse(a, b *Tensor) *Tensor {
	m, k, nn := checkMatMul(a, b)
	out := New(m, nn)
	matmulSparseInto(out.Data, a.Data, b.Data, m, k, nn)
	return out
}
