package tensor

// Int8 GEMM blocking parameters. The kernel mirrors the FP32 blocked
// kernel in gemm.go — tile over N and K, pack the B block into a panel
// interleaved in groups of qgemmMR K-rows, stream every A row over it —
// but the panel holds one byte per element, so the same cache budget
// covers a 4x larger block and the microkernel's panel traffic is a
// quarter of the FP32 kernel's.
//
// The microkernel beats scalar FP32 by dodging the integer-multiply
// throughput wall (one scalar IMUL per cycle on most cores, vs two FP
// multiply ports) with a SWAR pairing: two A rows are packed into one
// int64 lane pair (hi<<32 + lo) and multiplied by a zero-extended panel
// byte, so a single 64-bit multiply yields both rows' products. To keep
// the lanes separable the panel stores c+128 (unsigned), and the +128
// bias is subtracted once per K-block via the rows' precomputed sums —
// exact integer arithmetic throughout, accumulated in int32 (the lane
// sums stay below 2^18, far under overflow).
const (
	qgemmKC = 256 // K-block: rows of B packed per panel (2x the FP32 KC; same bytes)
	qgemmNC = 512 // N-block: columns of B packed per panel
	qgemmMR = 4   // K-interleave of the packed panel / microkernel unroll
)

// qgemmPairRange converts a chunk of row-pair indices [lo, hi) into the
// row range it owns: shard boundaries always land on even rows, and the
// last pair of an odd-M matrix owns the lone remainder row.
func qgemmPairRange(lo, hi, m int) (rlo, rhi int) {
	return lo * 2, min(hi*2, m)
}

// qgemmPanelRows is the int8 microkernel's row-staging loop under the one
// tile loop, gemm.rowRange (the int8 mirror of gemmPanelRows): it accumulates
// one packed (K-block, N-block) panel into output rows [rlo, rhi),
// dst[i, jc:jc+jb] += a[i, kc:kc+kb] x panel. Rows go two at a time,
// staged into one SWAR lane pair per K index, so a single 64-bit
// multiply serves both; an odd last row takes the one-row kernel.
// Integer accumulation is exact, so results do not depend on how
// callers split rows.
func qgemmPanelRows(dst []int32, a []int8, panel []byte, k, n, kc, kb, jc, jb, rlo, rhi int) {
	kb4 := (kb + qgemmMR - 1) &^ (qgemmMR - 1)
	var abuf0, abuf1 [qgemmKC]int8
	var pair [qgemmKC]int64
	i := rlo
	for ; i+1 < rhi; i += 2 {
		s0 := loadQRow(&abuf0, a, i, k, kc, kb, kb4)
		s1 := loadQRow(&abuf1, a, i+1, k, kc, kb, kb4)
		for g := 0; g < kb4; g++ {
			pair[g] = int64(abuf1[g])<<32 + int64(abuf0[g])
		}
		qkernel2(dst[i*n+jc:i*n+jc+jb], dst[(i+1)*n+jc:(i+1)*n+jc+jb],
			panel, pair[:kb4], 128*s0, 128*s1, kb4)
	}
	if i < rhi {
		s0 := loadQRow(&abuf0, a, i, k, kc, kb, kb4)
		qkernel1(dst[i*n+jc:i*n+jc+jb], panel, abuf0[:kb4], 128*s0, kb4)
	}
}

// loadQRow copies A row i's K-block into abuf, zero-padding to the kb4
// round-up so the microkernel needs no K-remainder handling, and
// returns the sum of the copied values (the panel-bias correction term;
// the zero padding contributes nothing to it or to any product).
func loadQRow(abuf *[qgemmKC]int8, a []int8, i, k, kc, kb, kb4 int) int32 {
	copy(abuf[:kb], a[i*k+kc:i*k+kc+kb])
	clear(abuf[kb:kb4])
	var s int32
	for _, v := range abuf[:kb] {
		s += int32(v)
	}
	return s
}

// qkernel2 accumulates two output rows against one packed panel. Each
// packed lane pair (row1<<32 + row0) times a biased panel byte yields
// both rows' products in one 64-bit multiply; a whole panel column is
// summed lane-wise (the lane sums over a qgemmKC-deep block stay below
// 127*255*256 < 2^24, so a single 2^31 low-lane bias splits the final
// value without a carry), and the +128 panel bias is removed per column
// via corr0/corr1 (128 x the rows' A sums).
func qkernel2(o0, o1 []int32, panel []byte, pair []int64, corr0, corr1 int32, kb4 int) {
	o1 = o1[:len(o0)]
	j := 0
	// Four panel columns per pass, one accumulator each: every loaded
	// lane pair feeds four multiplies.
	for ; j+3 < len(o0); j += 4 {
		c0 := panel[j*kb4 : j*kb4+kb4]
		c1 := panel[(j+1)*kb4 : (j+1)*kb4+kb4]
		c2 := panel[(j+2)*kb4 : (j+2)*kb4+kb4]
		c3 := panel[(j+3)*kb4 : (j+3)*kb4+kb4]
		var a, b, c, d uint64
		for g := 0; g < kb4; g += qgemmMR {
			pr := pair[g : g+qgemmMR : g+qgemmMR]
			q0 := c0[g : g+qgemmMR : g+qgemmMR]
			q1 := c1[g : g+qgemmMR : g+qgemmMR]
			q2 := c2[g : g+qgemmMR : g+qgemmMR]
			q3 := c3[g : g+qgemmMR : g+qgemmMR]
			p0, p1, p2, p3 := uint64(pr[0]), uint64(pr[1]), uint64(pr[2]), uint64(pr[3])
			a += p0*uint64(q0[0]) + p1*uint64(q0[1]) + p2*uint64(q0[2]) + p3*uint64(q0[3])
			b += p0*uint64(q1[0]) + p1*uint64(q1[1]) + p2*uint64(q1[2]) + p3*uint64(q1[3])
			c += p0*uint64(q2[0]) + p1*uint64(q2[1]) + p2*uint64(q2[2]) + p3*uint64(q2[3])
			d += p0*uint64(q3[0]) + p1*uint64(q3[1]) + p2*uint64(q3[2]) + p3*uint64(q3[3])
		}
		a, b, c, d = a+1<<31, b+1<<31, c+1<<31, d+1<<31
		o0[j] += int32(uint32(a)^1<<31) - corr0
		o1[j] += int32(uint32(a>>32)) - corr1
		o0[j+1] += int32(uint32(b)^1<<31) - corr0
		o1[j+1] += int32(uint32(b>>32)) - corr1
		o0[j+2] += int32(uint32(c)^1<<31) - corr0
		o1[j+2] += int32(uint32(c>>32)) - corr1
		o0[j+3] += int32(uint32(d)^1<<31) - corr0
		o1[j+3] += int32(uint32(d>>32)) - corr1
	}
	// Columns N mod 4: a two-column pass, then a single column.
	for ; j+1 < len(o0); j += 2 {
		c0 := panel[j*kb4 : j*kb4+kb4]
		c1 := panel[(j+1)*kb4 : (j+1)*kb4+kb4]
		pr := pair
		var a0, a1, b0, b1 uint64
		for len(pr) >= qgemmMR && len(c0) >= qgemmMR && len(c1) >= qgemmMR {
			p0, p1, p2, p3 := uint64(pr[0]), uint64(pr[1]), uint64(pr[2]), uint64(pr[3])
			a0 += p0*uint64(c0[0]) + p1*uint64(c0[1])
			a1 += p2*uint64(c0[2]) + p3*uint64(c0[3])
			b0 += p0*uint64(c1[0]) + p1*uint64(c1[1])
			b1 += p2*uint64(c1[2]) + p3*uint64(c1[3])
			pr, c0, c1 = pr[qgemmMR:], c0[qgemmMR:], c1[qgemmMR:]
		}
		ra := a0 + a1 + 1<<31
		rb := b0 + b1 + 1<<31
		o0[j] += int32(uint32(ra)^1<<31) - corr0
		o1[j] += int32(uint32(ra>>32)) - corr1
		o0[j+1] += int32(uint32(rb)^1<<31) - corr0
		o1[j+1] += int32(uint32(rb>>32)) - corr1
	}
	if j < len(o0) {
		col := panel[j*kb4 : j*kb4+kb4]
		pr := pair
		var r0, r1 uint64
		for len(pr) >= qgemmMR && len(col) >= qgemmMR {
			r0 += uint64(pr[0])*uint64(col[0]) + uint64(pr[1])*uint64(col[1])
			r1 += uint64(pr[2])*uint64(col[2]) + uint64(pr[3])*uint64(col[3])
			pr, col = pr[qgemmMR:], col[qgemmMR:]
		}
		r := r0 + r1 + 1<<31
		o0[j] += int32(uint32(r)^1<<31) - corr0
		o1[j] += int32(uint32(r>>32)) - corr1
	}
}

// qkernel1 is the single-row remainder: plain int32 products against
// the biased panel, with the same per-column bias correction.
func qkernel1(o0 []int32, panel []byte, abuf []int8, corr0 int32, kb4 int) {
	for j := range o0 {
		col := panel[j*kb4 : j*kb4+kb4]
		ab := abuf
		var r0, r1, r2, r3 int32
		for len(col) >= qgemmMR && len(ab) >= qgemmMR {
			r0 += int32(ab[0]) * int32(col[0])
			r1 += int32(ab[1]) * int32(col[1])
			r2 += int32(ab[2]) * int32(col[2])
			r3 += int32(ab[3]) * int32(col[3])
			col = col[qgemmMR:]
			ab = ab[qgemmMR:]
		}
		o0[j] += r0 + r1 + r2 + r3 - corr0
	}
}

// packQPanel copies rows [kc, kc+kb) x cols [jc, jc+jb) of a [K, N] B
// operand whose element (r, c) is b[r*rs+c*cs] (packPanel's strides: a
// row-major B at (n, 1), an [N, K] weight matrix read in place at (1, k))
// into panel with a +128 bias (so panel bytes are unsigned and SWAR lanes
// stay separable), column-major: element (kc+g, jc+j) lands at
// panel[j*kb4 + g], making each output column's dot product one
// contiguous byte run. Every byte of the panel is stored; rows past kb
// (up to the kb4 round-up) hold the bias value, which the zero-padded A
// rows multiply to nothing.
func packQPanel(panel []byte, b []int8, rs, cs, kc, kb, kb4, jc, jb int) {
	for j := 0; j < jb; j++ {
		src := b[kc*rs+(jc+j)*cs:]
		col := panel[j*kb4 : (j+1)*kb4]
		for g := 0; g < kb; g++ {
			col[g] = byte(int16(src[g*rs]) + 128)
		}
		for g := kb; g < kb4; g++ {
			col[g] = 128
		}
	}
}
