package tensor

import "sync"

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

// gemmPanelElems is the scratch size one packed B panel needs.
func gemmPanelElems() int { return gemmKC * gemmNC }

// matmulInto computes dst = a x b for row-major a [m, k] and b [k, n],
// overwriting all of dst[0:m*n]. It dispatches between the sparse,
// parallel-blocked, and serial-blocked kernels; the parallel split is by
// output rows, so results are bitwise identical to the serial kernel.
// aZeroFrac is the fraction of a's elements that are exactly zero, as
// zeroFraction counts it: a caller whose left operand is a constant
// measures it once, not per multiply.
func matmulInto(dst, a, b []float32, m, k, n int, aZeroFrac float64) {
	switch {
	case m*k*n < parallelThresholdMACs:
		panel := gemmPanelPool.Get().(*[]float32)
		matmulBlockedRange(dst, a, b, m, k, n, 0, m, *panel)
		gemmPanelPool.Put(panel)
	case aZeroFrac >= sparseSkipFraction:
		matmulSparseInto(dst, a, b, m, k, n)
	default:
		matmulParallelInto(dst, a, b, m, k, n)
	}
}

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

// gemmPanelPool recycles packed-panel scratch across parallel GEMM
// shards; each chunk packs its own panels, so the pool keeps steady-state
// scratch allocation at zero without sharing panels between chunks.
var gemmPanelPool = sync.Pool{New: func() any {
	p := make([]float32, gemmPanelElems())
	return &p
}}

// matmulParallelInto shards output M-rows across the persistent worker
// pool in grain-bounded chunks; each chunk runs the blocked kernel over
// its row span with a pooled packed panel, so a chunk is a full
// M-panel pass over the already-packed B panels. Per-row results do not
// depend on the shard split, so the output is bitwise identical to a
// single-shard run; with the pool saturated or GOMAXPROCS=1 the whole
// range runs on the caller, which equals MatMulSerial.
func matmulParallelInto(dst, a, b []float32, m, k, n int) {
	parallelFor(m, grainForMACs(k*n), func(lo, hi int) {
		panel := gemmPanelPool.Get().(*[]float32)
		matmulBlockedRange(dst, a, b, m, k, n, lo, hi, *panel)
		gemmPanelPool.Put(panel)
	})
}

// matmulBlockedRange computes output rows [rlo, rhi) of dst = a x b with
// cache blocking. panel is optional scratch of gemmPanelElems() floats
// (allocated when nil). Rows are zeroed first, then accumulated one
// (K-block, N-block) panel at a time.
func matmulBlockedRange(dst, a, b []float32, m, k, n, rlo, rhi int, panel []float32) {
	_ = m
	if panel == nil {
		panel = make([]float32, gemmPanelElems())
	}
	for i := rlo; i < rhi; i++ {
		clear(dst[i*n : (i+1)*n])
	}
	for jc := 0; jc < n; jc += gemmNC {
		jb := min(n-jc, gemmNC)
		for kc := 0; kc < k; kc += gemmKC {
			kb := min(k-kc, gemmKC)
			kb4 := (kb + gemmMR - 1) &^ (gemmMR - 1)
			packPanel(panel, b, n, kc, kb, kb4, jc, jb)
			gemmPanelRows(dst, a, panel[:kb4*jb], k, n, kc, kb, jc, jb, rlo, rhi)
		}
	}
}

// gemmPanelRows is the register-tiled microkernel both blocked kernels
// share: it accumulates one packed (K-block, N-block) panel into output
// rows [rlo, rhi), dst[i, jc:jc+jb] += a[i, kc:kc+kb] x panel. Rows go
// two at a time so each panel quad is loaded once and feeds both rows'
// accumulators; an odd last row takes the one-row form. Every output
// element sees the same expression and the same K order whichever form
// handles its row, so results do not depend on how callers split rows.
// The A spans are staged into zero-padded buffers so the kb..kb4 tail
// multiplies the panel's +0.0 padding by +0.0.
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

// packPanel copies the B block rows [kc, kc+kb) x cols [jc, jc+jb) into
// panel, interleaved in groups of gemmMR K-rows: element (kc+g+r, jc+j)
// lands at panel[g*jb + j*gemmMR + r]. Rows past kb (up to the kb4
// round-up) are zero-filled so the microkernel needs no K-remainder.
func packPanel(panel, b []float32, n, kc, kb, kb4, jc, jb int) {
	for g := 0; g < kb4; g += gemmMR {
		dst := panel[g*jb : (g+gemmMR)*jb]
		for r := 0; r < gemmMR; r++ {
			kk := g + r
			if kk >= kb {
				for j := 0; j < jb; j++ {
					dst[j*gemmMR+r] = 0
				}
				continue
			}
			brow := b[(kc+kk)*n+jc : (kc+kk)*n+jc+jb]
			for j, v := range brow {
				dst[j*gemmMR+r] = v
			}
		}
	}
}

// matmulSparseInto is the zero-skipping ikj kernel for pruned left
// operands: rows of a with mostly-zero entries skip whole B rows. Dense
// inputs should use the blocked kernel instead (matmulInto dispatches).
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

// MatMulSerial multiplies a [M, K] by b [K, N] on the calling goroutine
// with the cache-blocked kernel — the deterministic reference the
// parallel path is checked against.
func MatMulSerial(a, b *Tensor) *Tensor {
	m, k, nn := checkMatMul(a, b)
	out := New(m, nn)
	matmulBlockedRange(out.Data, a.Data, b.Data, m, k, nn, 0, m, nil)
	return out
}

// MatMulParallel multiplies a [M, K] by b [K, N] with output rows sharded
// across the persistent kernel worker pool, each chunk running the
// cache-blocked kernel. Results are bitwise identical to MatMulSerial.
func MatMulParallel(a, b *Tensor) *Tensor {
	m, k, nn := checkMatMul(a, b)
	out := New(m, nn)
	matmulParallelInto(out.Data, a.Data, b.Data, m, k, nn)
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
