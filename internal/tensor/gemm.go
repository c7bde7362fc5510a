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

// sparseSkipFraction is the weight zero fraction from which a convolution
// of at least parallelThresholdMACs takes the zero-skipping kernel
// (sparseConv). Alternated with the dense band pass
// (BenchmarkSparseVsDenseConv; EXPERIMENTS.md table G) the zero-skipping
// kernel breaks even between 60 and 70 % zeros, is 1.2-1.7x ahead at 80 %
// and 2.5-3x at 90 %; pruned-weight tensors (the paper's sparsity study)
// sit far above the bar and dense ones far below, so the dense path never
// pays a per-element branch.
const sparseSkipFraction = 0.6

// sparseConv reports whether a convolution of macs multiply-accumulates
// whose weights are zeroFrac zeros takes the zero-skipping kernel. It is
// the whole selection: the kernel asks it, and PackConvWeights refuses
// panels exactly where it says yes, so a layer runs one kernel family
// packed or not and a pruned layer below the MAC bar is still packed
// ahead of time.
func sparseConv(zeroFrac float64, macs int) bool {
	return zeroFrac >= sparseSkipFraction && macs >= parallelThresholdMACs
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

// gemmPairRange converts a chunk of row-pair indices [lo, hi) into the
// row range it owns: shard boundaries always land on even rows, so only
// the lone last row of an odd-M matrix takes gemmPanelRows' one-row form.
func gemmPairRange(lo, hi, m int) (rlo, rhi int) {
	return lo * 2, min(hi*2, m)
}

// gemmPanelRows is the register-tiled FP32 microkernel under the one tile
// loop (gemm.rowRange): it accumulates one packed (K-block, N-block)
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
// operands: rows of a with mostly-zero entries skip whole B rows.
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
