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

// gemmPanelRows is the FP32 microkernel under the one tile loop
// (bandJob.rowRange): dst[i, jc:jc+jb] += im2row(in)[p, kc:kc+kb] x panel
// for the pixel p of each window win[i], every element through one loop
// body, panel2x2. A row pair's K-block is staged into a0 and a1 straight
// from the input, through the block's taps. An odd last row pairs with a
// copy of itself that accumulates into a sink. Each element keeps its
// expression and K order however it is paired, so results do not depend
// on how callers split rows.
func gemmPanelRows(dst []float32, j *bandJob[float32, float32, float32], win []window, panel []float32, kc, kb, jc, jb int) {
	n, kb4 := j.pw.N, (kb+gemmMR-1)&^(gemmMR-1)
	var t convTaps
	t.init(j.geo, kc, kb)
	// a0 and a1 are never written past kb: the K tail is +0.0 x +0.0 padding.
	var a0, a1 [gemmKC]float32
	for i := 0; i < len(win); i += 2 {
		i1 := min(i+1, len(win)-1)
		stageWindow(a0[:kb], j.in, &t, win[i], &j.geo)
		stageWindow(a1[:kb], j.in, &t, win[i1], &j.geo)
		o0, o1 := dst[i*n+jc:][:jb], dst[i1*n+jc:][:jb]
		if i1 == i {
			var sink [gemmNC]float32
			o1 = sink[:jb]
		}
		for g := 0; g < kb4; g += gemmMR {
			panel2x2(o0, o1, panel[g*jb:(g+gemmMR)*jb], (*[gemmMR]float32)(a0[g:]), (*[gemmMR]float32)(a1[g:]))
		}
	}
}

// panel2x2 is the FP32 microkernel's loop body: one K-quad of two rows
// against a row of panel quads, o0[j] += x . q_j and o1[j] += y . q_j, two
// columns a step and an odd last column after the loop. Each quad is
// loaded once and feeds both rows, and the eight A values stay in
// registers: a leaf with one index, so gc spills none of that state.
func panel2x2(o0, o1, p []float32, x, y *[gemmMR]float32) {
	a0, a1, a2, a3 := x[0], x[1], x[2], x[3]
	b0, b1, b2, b3 := y[0], y[1], y[2], y[3]
	o1 = o1[:len(o0)]
	j := 1
	for ; j < len(o0); j += 2 {
		q := p[gemmMR*j-gemmMR : gemmMR*j+gemmMR : gemmMR*j+gemmMR]
		q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
		o0[j-1] += a0*q0 + a1*q1 + a2*q2 + a3*q3
		o1[j-1] += b0*q0 + b1*q1 + b2*q2 + b3*q3
		q0, q1, q2, q3 = q[4], q[5], q[6], q[7]
		o0[j] += a0*q0 + a1*q1 + a2*q2 + a3*q3
		o1[j] += b0*q0 + b1*q1 + b2*q2 + b3*q3
	}
	if j == len(o0) {
		q := p[gemmMR*j-gemmMR : gemmMR*j : gemmMR*j]
		o0[j-1] += a0*q[0] + a1*q[1] + a2*q[2] + a3*q[3]
		o1[j-1] += b0*q[0] + b1*q[1] + b2*q[2] + b3*q[3]
	}
}

// packPanel copies rows [kc, kc+kb) x cols [jc, jc+jb) of a [K, N] B
// operand whose element (r, c) is b[r*rs+c*cs] — a row-major B at strides
// (n, 1), a [N, K] weight matrix read in place as its transpose at (1, k)
// — into panel, interleaved in groups of gemmMR K-rows: element
// (kc+g+r, jc+j) lands at panel[g*jb + j*gemmMR + r]. Every element of
// the panel is stored, rows past kb (up to the kb4 round-up) as +0.0, so
// the microkernel needs no K-remainder. Columns go one at a time because
// that is the contiguous direction of the weight matrix, the operand
// packed.
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
