package tensor

// Int8 GEMM blocking parameters. The kernel tiles over N and K, packs the
// B block into a panel of one byte per element, and streams every A row
// over it.
//
// On an AVX2 host the microkernel is a vector body (qgemmUnitAVX2): a
// unit of six pixels, each pixel's K-block staged as int16 codes, against
// eight panel columns at a time with VPMADDWD, into int32 lanes. The Go
// fallback, the path off AVX2 and the vector body's reference, dodges the
// integer-multiply throughput wall (one scalar IMUL per cycle on most
// cores, vs two FP multiply ports) with SWAR lanes: three A rows (output
// pixels) are staged from the conv's input into one int64 as signed
// laneShift-bit fields, a0 + a1<<21 + a2<<42, and multiplied by a
// sign-extended panel code, so a single 64-bit multiply yields all three
// rows' products. Codes are symmetric ([-127, 127], quantClamp), so a lane
// summed over a qgemmKC-deep K-block stays inside its field and the three
// sums come back exactly by sign extension: integer arithmetic throughout,
// with no bias and no correction term. Either path sums the same integer
// products, so both give the same int32 accumulators.
const (
	qgemmKC = 64  // K-block: rows of B packed per panel, as deep as the lanes allow
	qgemmNC = 512 // N-block: columns of B packed per panel
	qgemmMR = 4   // K-interleave of the packed panel / microkernel unroll
)

// qgemmLanes A rows share each 64-bit multiply, laneShift bits apiece.
const (
	qgemmLanes = 3
	laneShift  = 64 / qgemmLanes
)

// The lane bound, checked by the compiler: a qgemmKC-deep sum of products
// of codes in [-127, 127] fits a signed laneShift-bit field, so lanes never
// carry into each other (127*127*64 = 1 032 256 < 2^20).
const _ uint = 1<<(laneShift-1) - 1 - 127*127*qgemmKC

// qgemmPanelRows is the int8 microkernel under the one tile loop,
// bandJob.rowRange: it accumulates one packed (K-block, N-block) panel
// into the rows of the pixels whose windows are win, dst[i, jc:jc+jb] +=
// im2row(codes)[p, kc:kc+kb] x panel. Where qgemmVector holds, the vector
// body takes it (qgemmPanelRowsVector). Otherwise pixels go three at a
// time, staged from the code plane into a lane triple per K index
// (stageLanes); a short last triple repeats its last pixel into lanes
// that accumulate into a sink. Groups of four columns go through qdot4,
// the N mod 4 tail one at a time. Results do not depend on how callers
// split rows.
func qgemmPanelRows(dst []int32, j *bandJob, win []window, panel []byte, kc, kb, jc, jb int) {
	var t convTaps
	t.init(j.geo, kc, kb)
	if qgemmVector(jb) {
		qgemmPanelRowsVector(dst, j, &t, win, panel, kb, jc, jb)
		return
	}
	n, kb4 := j.pw.N, (kb+qgemmMR-1)&^(qgemmMR-1)
	// lanes[kb:kb4] is never written: zero, as are the panel rows it meets.
	var buf [qgemmKC]int64
	lanes := buf[:kb4]
	for i := 0; i < len(win); i += qgemmLanes {
		i1, i2 := min(i+1, len(win)-1), min(i+2, len(win)-1)
		stageLanes(lanes[:kb], j, &t, win[i], win[i1], win[i2])
		o0, o1, o2 := dst[i*n+jc:][:jb], dst[i1*n+jc:][:jb], dst[i2*n+jc:][:jb]
		if i2 == i1 {
			var sink [qgemmNC]int32
			o2 = sink[:jb]
			if i1 == i {
				o1 = o2
			}
		}
		j := 0
		for ; j+3 < jb; j += 4 {
			s0, s1, s2, s3 := qdot4(lanes, panel[j*kb4:(j+4)*kb4])
			addLanes(o0, o1, o2, j, s0)
			addLanes(o0, o1, o2, j+1, s1)
			addLanes(o0, o1, o2, j+2, s2)
			addLanes(o0, o1, o2, j+3, s3)
		}
		for ; j < jb; j++ {
			col := panel[j*kb4 : (j+1)*kb4]
			var s int64
			for g, l := range lanes {
				s += l * int64(int8(col[g]))
			}
			addLanes(o0, o1, o2, j, s)
		}
	}
}

// qgemmVector reports whether qgemmPanelRows runs a panel of jb columns
// on the vector body: on an AVX2 host, a panel with a full group of four.
func qgemmVector(jb int) bool {
	return useAVX2 && jb >= qgemmMR
}

// qgemmPanelRowsVector is qgemmPanelRows on the vector body. Pixels go a
// unit (convUnitPixels) at a time, each one's K-block staged from the
// code plane as int16 codes, qgemmKC apart (stageWindow); qgemmUnitAVX2
// multiplies the unit by every full four-column group of the panel and
// the N mod 4 tail runs here on the same codes. A short unit stages only
// its pixels: the vector body computes the stale rest and stores none of
// it.
func qgemmPanelRowsVector(dst []int32, j *bandJob, t *convTaps, win []window, panel []byte, kb, jc, jb int) {
	n, kb4, cols := j.pw.N, (kb+qgemmMR-1)&^(qgemmMR-1), jb&^(qgemmMR-1)
	// Codes kb to kb4 of a pixel are never written: zero, as are the
	// panel rows they meet.
	var codes [convUnitPixels * qgemmKC]int16
	for i := 0; i < len(win); i += convUnitPixels {
		rows := min(convUnitPixels, len(win)-i)
		for p, w := range win[i : i+rows] {
			stageWindow(codes[p*qgemmKC:][:kb], j.in, t, w, &j.geo)
		}
		o := dst[i*n+jc : (i+rows-1)*n+jc+jb]
		qgemmUnitAVX2(o, n, rows, codes[:], panel[:cols*kb4], kb4, cols)
		for c := cols; c < jb; c++ {
			col := panel[c*kb4:][:kb]
			for p := range rows {
				var s int32
				for g, v := range codes[p*qgemmKC:][:kb] {
					s += int32(v) * int32(int8(col[g]))
				}
				o[p*n+c] += s
			}
		}
	}
}

// stageLanes writes the lane triple a0 + a1<<21 + a2<<42 of the pixels
// with windows w0, w1, w2 at the first len(l) taps of t into l, read
// from the code plane: three interior windows (a pointwise conv's always
// are) in one gather, else each through stageWindow.
func stageLanes(l []int64, j *bandJob, t *convTaps, w0, w1, w2 window) {
	offs := t.off[:len(l)]
	if w0.inside && w1.inside && w2.inside {
		x0, x1, x2 := j.in[w0.base:], j.in[w1.base:], j.in[w2.base:]
		for g, o := range offs {
			l[g] = int64(x0[o]) + int64(x1[o])<<laneShift + int64(x2[o])<<(2*laneShift)
		}
		return
	}
	var c0, c1, c2 [qgemmKC]int8
	stageWindow(c0[:len(l)], j.in, t, w0, &j.geo)
	stageWindow(c1[:len(l)], j.in, t, w1, &j.geo)
	stageWindow(c2[:len(l)], j.in, t, w2, &j.geo)
	for g := range l {
		l[g] = int64(c0[g]) + int64(c1[g])<<laneShift + int64(c2[g])<<(2*laneShift)
	}
}

// qdot4 is the inner loop: the lanes against one four-column group of the
// panel, one accumulator per column, each loaded lane feeding four
// multiplies off the group's 16 contiguous bytes per K-quad. It is a
// function of its own so the compiler keeps all four accumulators in
// registers.
func qdot4(l []int64, q []byte) (s0, s1, s2, s3 int64) {
	for len(l) >= qgemmMR && len(q) >= 4*qgemmMR {
		v := l[0]
		s0, s1, s2, s3 = s0+v*int64(int8(q[0])), s1+v*int64(int8(q[4])), s2+v*int64(int8(q[8])), s3+v*int64(int8(q[12]))
		v = l[1]
		s0, s1, s2, s3 = s0+v*int64(int8(q[1])), s1+v*int64(int8(q[5])), s2+v*int64(int8(q[9])), s3+v*int64(int8(q[13]))
		v = l[2]
		s0, s1, s2, s3 = s0+v*int64(int8(q[2])), s1+v*int64(int8(q[6])), s2+v*int64(int8(q[10])), s3+v*int64(int8(q[14]))
		v = l[3]
		s0, s1, s2, s3 = s0+v*int64(int8(q[3])), s1+v*int64(int8(q[7])), s2+v*int64(int8(q[11])), s3+v*int64(int8(q[15]))
		l, q = l[qgemmMR:], q[4*qgemmMR:]
	}
	return
}

// addLanes splits a column's lane-triple sum s by sign extension and adds
// each lane to column j of its row.
func addLanes(o0, o1, o2 []int32, j int, s int64) {
	l0 := s << (64 - laneShift) >> (64 - laneShift)
	s = (s - l0) >> laneShift
	l1 := s << (64 - laneShift) >> (64 - laneShift)
	o0[j] += int32(l0)
	o1[j] += int32(l1)
	o2[j] += int32((s - l1) >> laneShift)
}

// packQPanel copies rows [kc, kc+kb) x cols [jc, jc+jb) of the [K, N]
// transpose of an [N, K] weight matrix w, read in place (element (r, c)
// is w[c*k+r]), into panel as signed codes. Full groups of four columns
// are interleaved per K-quad, 16 contiguous bytes per quad: element
// (kc+g, jc+j) lands at panel[(j&^3)*kb4 + (g&^3)*4 + (j&3)*4 + g&3]. The
// N mod 4 tail is column-major, at panel[j*kb4 + g]. Either layout keeps
// a column inside the bytes its group would take column-major, so the
// panel is kb4*jb bytes. Every byte is stored; rows past kb (up to the
// kb4 round-up) hold zero.
func packQPanel(panel []byte, w []int8, k, kc, kb, kb4, jc, jb int) {
	for j := 0; j < jb; j++ {
		src := w[(jc+j)*k+kc:]
		col, quad := panel[j*kb4:], qgemmMR
		if j < jb&^3 {
			col, quad = panel[(j&^3)*kb4+(j&3)*qgemmMR:], 4*qgemmMR
		}
		for g := 0; g < kb4; g++ {
			var v int8
			if g < kb {
				v = src[g]
			}
			col[g/qgemmMR*quad+g%qgemmMR] = byte(v)
		}
	}
}
