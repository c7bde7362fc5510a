#include "textflag.h"

// The AVX2 body of pointwiseQuads (gemm.go), eight pixels to a YMM
// register, one lane per output. Each lane computes the Go loop's
// expression for its pixel, operation for operation and in its order:
// o + (((x0*a0 + x1*a1) + x2*a2) + x3*a3), every product a VMULPS with
// the input first and every sum a VADDPS with the running sum first,
// rounded apart. No FMA: one rounding in place of two would move the
// bits.

// tailMask<>+4*(8-r) is the mask of the first r lanes of eight.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// QUAD accumulates one K-quad, its input rows in Y2-Y5, into Y0 with
// w0's quad at (R8)(R13*1) and into Y1 with w1's at (R10)(R13*1).
#define QUAD \
	VBROADCASTSS 0(R8)(R13*1), Y6; \
	VMULPS       Y6, Y2, Y6; \
	VBROADCASTSS 4(R8)(R13*1), Y7; \
	VMULPS       Y7, Y3, Y7; \
	VADDPS       Y7, Y6, Y6; \
	VBROADCASTSS 8(R8)(R13*1), Y7; \
	VMULPS       Y7, Y4, Y7; \
	VADDPS       Y7, Y6, Y6; \
	VBROADCASTSS 12(R8)(R13*1), Y7; \
	VMULPS       Y7, Y5, Y7; \
	VADDPS       Y7, Y6, Y6; \
	VADDPS       Y6, Y0, Y0; \
	VBROADCASTSS 0(R10)(R13*1), Y8; \
	VMULPS       Y8, Y2, Y8; \
	VBROADCASTSS 4(R10)(R13*1), Y9; \
	VMULPS       Y9, Y3, Y9; \
	VADDPS       Y9, Y8, Y8; \
	VBROADCASTSS 8(R10)(R13*1), Y9; \
	VMULPS       Y9, Y4, Y9; \
	VADDPS       Y9, Y8, Y8; \
	VBROADCASTSS 12(R10)(R13*1), Y9; \
	VMULPS       Y9, Y5, Y9; \
	VADDPS       Y9, Y8, Y8; \
	VADDPS       Y8, Y1, Y1

// func pointwiseQuadsAVX2(o0, o1, x []float32, stride int, w0, w1 []float32)
//
// Pixels [0, len(o0)) of both rows, every K-quad of w0 and w1, a group of
// eight pixels at a time: the group's two accumulators are loaded once,
// carried in Y0 and Y1 across all the quads, and stored once. The last
// len(o0) mod 8 pixels run the same quad loop on masked loads and stores,
// which touch no element past the run. The caller has checked every
// bound and that there is at least one quad.
TEXT ·pointwiseQuadsAVX2(SB), NOSPLIT, $0-128
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX
	MOVQ o1_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ stride+72(FP), BX
	MOVQ w0_base+80(FP), R8
	MOVQ w0_len+88(FP), R9
	MOVQ w1_base+104(FP), R10
	SHLQ $2, BX             // a row's stride in bytes
	LEAQ (BX)(BX*2), R11    // three rows'
	ANDQ $-4, R9
	SHLQ $2, R9             // the quads' weight bytes
	XORQ AX, AX             // the group's first pixel
	ANDQ $-8, CX            // the full groups' pixels

group:
	CMPQ AX, CX
	JEQ  tail
	VMOVUPS (DI)(AX*4), Y0
	VMOVUPS (SI)(AX*4), Y1
	LEAQ    (DX)(AX*4), R12
	XORQ    R13, R13

groupQuad:
	VMOVUPS (R12), Y2
	VMOVUPS (R12)(BX*1), Y3
	VMOVUPS (R12)(BX*2), Y4
	VMOVUPS (R12)(R11*1), Y5
	QUAD
	LEAQ    (R12)(BX*4), R12
	ADDQ    $16, R13
	CMPQ    R13, R9
	JNE     groupQuad
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, (SI)(AX*4)
	ADDQ    $8, AX
	JMP     group

tail:
	MOVQ o0_len+8(FP), CX
	SUBQ AX, CX             // r = len(o0) mod 8
	JEQ  done
	LEAQ tailMask<>(SB), R12
	NEGQ CX
	VMOVUPS 32(R12)(CX*4), Y10
	VMASKMOVPS (DI)(AX*4), Y10, Y0
	VMASKMOVPS (SI)(AX*4), Y10, Y1
	LEAQ    (DX)(AX*4), R12
	XORQ    R13, R13

tailQuad:
	VMASKMOVPS (R12), Y10, Y2
	VMASKMOVPS (R12)(BX*1), Y10, Y3
	VMASKMOVPS (R12)(BX*2), Y10, Y4
	VMASKMOVPS (R12)(R11*1), Y10, Y5
	QUAD
	LEAQ    (R12)(BX*4), R12
	ADDQ    $16, R13
	CMPQ    R13, R9
	JNE     tailQuad
	VMASKMOVPS Y0, Y10, (DI)(AX*4)
	VMASKMOVPS Y1, Y10, (SI)(AX*4)

done:
	VZEROUPPER
	RET

// func cpuAVX2() bool
//
// CPUID.1:ECX reports OSXSAVE (bit 27) and AVX (bit 28), XGETBV(0) that
// the OS saves the XMM and YMM state (bits 1 and 2), and CPUID.7:EBX
// AVX2 (bit 5).
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func fmulChainsAVX2(steps int) float32
//
// Twelve independent chains of eight lanes, each step x = x*m + c as a
// VMULPS and then a VADDPS: FMULChains' loop on the vector ports.
TEXT ·fmulChainsAVX2(SB), NOSPLIT, $0-12
	MOVQ steps+0(FP), CX
	MOVQ ·probeSeed(SB), AX
	CVTSQ2SS AX, X12
	MOVL $0x3f7fbe77, BX    // 0.999
	MOVQ BX, X13
	ADDSS X12, X13
	MOVL $0x3a83126f, BX    // 0.001
	MOVQ BX, X14
	ADDSS X12, X14
	VBROADCASTSS X13, Y13
	VBROADCASTSS X14, Y14
	VMOVAPS Y14, Y0
	VADDPS  Y14, Y0, Y1
	VADDPS  Y14, Y1, Y2
	VADDPS  Y14, Y2, Y3
	VADDPS  Y14, Y3, Y4
	VADDPS  Y14, Y4, Y5
	VADDPS  Y14, Y5, Y6
	VADDPS  Y14, Y6, Y7
	VADDPS  Y14, Y7, Y8
	VADDPS  Y14, Y8, Y9
	VADDPS  Y14, Y9, Y10
	VADDPS  Y14, Y10, Y11
	TESTQ CX, CX
	JLE   sum

step:
	VMULPS Y13, Y0, Y0
	VMULPS Y13, Y1, Y1
	VMULPS Y13, Y2, Y2
	VMULPS Y13, Y3, Y3
	VMULPS Y13, Y4, Y4
	VMULPS Y13, Y5, Y5
	VMULPS Y13, Y6, Y6
	VMULPS Y13, Y7, Y7
	VMULPS Y13, Y8, Y8
	VMULPS Y13, Y9, Y9
	VMULPS Y13, Y10, Y10
	VMULPS Y13, Y11, Y11
	VADDPS Y14, Y0, Y0
	VADDPS Y14, Y1, Y1
	VADDPS Y14, Y2, Y2
	VADDPS Y14, Y3, Y3
	VADDPS Y14, Y4, Y4
	VADDPS Y14, Y5, Y5
	VADDPS Y14, Y6, Y6
	VADDPS Y14, Y7, Y7
	VADDPS Y14, Y8, Y8
	VADDPS Y14, Y9, Y9
	VADDPS Y14, Y10, Y10
	VADDPS Y14, Y11, Y11
	DECQ CX
	JNZ  step

sum:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	VADDPS Y9, Y8, Y8
	VADDPS Y11, Y10, Y10
	VADDPS Y2, Y0, Y0
	VADDPS Y6, Y4, Y4
	VADDPS Y10, Y8, Y8
	VADDPS Y4, Y0, Y0
	VADDPS Y8, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VZEROUPPER
	MOVSS X0, ret+8(FP)
	RET

// The AVX2 body of the FP32 epilogue (applyEpilogueSpan, fused.go), one
// lane per element. Each lane runs the Go loops' operations in their
// order, rounded apart: v + b (mode&epiBias), then v*scale as a VMULPS and
// +shift as a VADDPS (mode&epiAffine), then clamp (mode&epiClamp) as two
// ordered compares, which are false on a NaN: v < +0 selects +0.0 through
// a VANDNPS, then v > hi selects hi through a VBLENDVPS. That is
// `if v < 0 {0} else if v > hi {hi}` for every bit pattern, as clamp is:
// -0.0 and NaNs pass, -Inf goes to +0.0 and +Inf to hi.

// func epilogueAVX2(seg []float32, b, scale, shift, hi float32, mode int)
//
// Eight elements at a time, the last len(seg) mod 8 through the same
// operations on masked loads and stores, so no element's operations
// depend on where the span starts or ends.
TEXT ·epilogueAVX2(SB), NOSPLIT, $0-48
	MOVQ seg_base+0(FP), DI
	MOVQ seg_len+8(FP), CX
	MOVQ mode+40(FP), BX
	VBROADCASTSS b+24(FP), Y11
	VBROADCASTSS scale+28(FP), Y12
	VBROADCASTSS shift+32(FP), Y13
	VBROADCASTSS hi+36(FP), Y14
	VXORPS Y15, Y15, Y15
	MOVQ CX, DX
	ANDQ $7, DX             // r = len(seg) mod 8
	ANDQ $-8, CX            // the full groups' elements
	LEAQ tailMask<>(SB), R8
	NEGQ DX
	VMOVUPS 32(R8)(DX*4), Y10
	XORQ AX, AX

epiLoop:
	CMPQ AX, CX
	JEQ  epiTailLoad
	VMOVUPS (DI)(AX*4), Y0
	JMP  epiBody

epiTailLoad:
	TESTQ DX, DX
	JEQ   epiDone
	VMASKMOVPS (DI)(AX*4), Y10, Y0

epiBody:
	TESTQ $1, BX
	JEQ   epiNoBias
	VADDPS Y11, Y0, Y0

epiNoBias:
	TESTQ $2, BX
	JEQ   epiNoAffine
	VMULPS Y12, Y0, Y0
	VADDPS Y13, Y0, Y0

epiNoAffine:
	TESTQ $4, BX
	JEQ   epiStore
	VCMPPS    $0x11, Y15, Y0, Y1 // LT_OQ: v < +0
	VANDNPS   Y0, Y1, Y0
	VCMPPS    $0x1e, Y14, Y0, Y1 // GT_OQ: v > hi
	VBLENDVPS Y1, Y14, Y0, Y0

epiStore:
	CMPQ AX, CX
	JEQ  epiTailStore
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  epiLoop

epiTailStore:
	VMASKMOVPS Y0, Y10, (DI)(AX*4)

epiDone:
	VZEROUPPER
	RET

// The AVX2 body of depthwiseRow's stride-1 interior (conv.go), one lane
// per output column. Each lane computes depthwisePixel's chain for its
// column: b, then += r0[x]*t0, r0[x+1]*t1, ... r2[x+2]*t8 in (ky, kx)
// order, every product a VMULPS with the input first and every sum a
// VADDPS with the running sum first, rounded apart. No FMA.

// ROW2 accumulates one input row at P against the taps TA, TB, TC into
// the two groups of eight at AX, in Y0 and Y1.
#define ROW2(P, TA, TB, TC) \
	VMOVUPS 0(P)(AX*4), Y2; \
	VMOVUPS 32(P)(AX*4), Y3; \
	VMULPS  TA, Y2, Y2; \
	VMULPS  TA, Y3, Y3; \
	VADDPS  Y2, Y0, Y0; \
	VADDPS  Y3, Y1, Y1; \
	VMOVUPS 4(P)(AX*4), Y2; \
	VMOVUPS 36(P)(AX*4), Y3; \
	VMULPS  TB, Y2, Y2; \
	VMULPS  TB, Y3, Y3; \
	VADDPS  Y2, Y0, Y0; \
	VADDPS  Y3, Y1, Y1; \
	VMOVUPS 8(P)(AX*4), Y2; \
	VMOVUPS 40(P)(AX*4), Y3; \
	VMULPS  TC, Y2, Y2; \
	VMULPS  TC, Y3, Y3; \
	VADDPS  Y2, Y0, Y0; \
	VADDPS  Y3, Y1, Y1

// ROW1 is ROW2 for the one group at AX, in Y0.
#define ROW1(P, TA, TB, TC) \
	VMOVUPS 0(P)(AX*4), Y2; \
	VMULPS  TA, Y2, Y2; \
	VADDPS  Y2, Y0, Y0; \
	VMOVUPS 4(P)(AX*4), Y2; \
	VMULPS  TB, Y2, Y2; \
	VADDPS  Y2, Y0, Y0; \
	VMOVUPS 8(P)(AX*4), Y2; \
	VMULPS  TC, Y2, Y2; \
	VADDPS  Y2, Y0, Y0

// ROWM is ROW1 on loads masked by Y4.
#define ROWM(P, TA, TB, TC) \
	LEAQ       (P)(AX*4), R12; \
	VMASKMOVPS 0(R12), Y4, Y2; \
	VMULPS     TA, Y2, Y2; \
	VADDPS     Y2, Y0, Y0; \
	VMASKMOVPS 4(R12), Y4, Y2; \
	VMULPS     TB, Y2, Y2; \
	VADDPS     Y2, Y0, Y0; \
	VMASKMOVPS 8(R12), Y4, Y2; \
	VMULPS     TC, Y2, Y2; \
	VADDPS     Y2, Y0, Y0

// func depthwiseRowAVX2(o, r0, r1, r2, t []float32, b float32)
//
// Output columns [0, len(o)) from the input rows r0, r1 and r2, column x
// reading r[x : x+3], against taps t[0:9]; with r2 empty, from r0 and r1
// against t[0:6]. The taps and b are broadcast once; two groups of eight
// run at a time, then one, then the last len(o) mod 8 on masked loads
// and stores, which touch nothing past the run. The caller has checked
// every bound.
TEXT ·depthwiseRowAVX2(SB), NOSPLIT, $0-124
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ r0_base+24(FP), SI
	MOVQ r1_base+48(FP), DX
	MOVQ r2_base+72(FP), R8
	MOVQ r2_len+80(FP), R9  // 0: two rows
	MOVQ t_base+96(FP), BX
	VBROADCASTSS b+120(FP), Y6
	VBROADCASTSS 0(BX), Y7
	VBROADCASTSS 4(BX), Y8
	VBROADCASTSS 8(BX), Y9
	VBROADCASTSS 12(BX), Y10
	VBROADCASTSS 16(BX), Y11
	VBROADCASTSS 20(BX), Y12
	TESTQ R9, R9
	JEQ   dwTaps
	VBROADCASTSS 24(BX), Y13
	VBROADCASTSS 28(BX), Y14
	VBROADCASTSS 32(BX), Y15

dwTaps:
	XORQ AX, AX             // the group's first column
	MOVQ CX, R10
	ANDQ $-16, R10          // the pairs of groups' columns

dwPair:
	CMPQ AX, R10
	JEQ  dwSingle
	VMOVAPS Y6, Y0
	VMOVAPS Y6, Y1
	ROW2(SI, Y7, Y8, Y9)
	ROW2(DX, Y10, Y11, Y12)
	TESTQ R9, R9
	JEQ   dwPairStore
	ROW2(R8, Y13, Y14, Y15)

dwPairStore:
	VMOVUPS Y0, (DI)(AX*4)
	VMOVUPS Y1, 32(DI)(AX*4)
	ADDQ $16, AX
	JMP  dwPair

dwSingle:
	MOVQ CX, R10
	ANDQ $-8, R10
	CMPQ AX, R10
	JEQ  dwTail
	VMOVAPS Y6, Y0
	ROW1(SI, Y7, Y8, Y9)
	ROW1(DX, Y10, Y11, Y12)
	TESTQ R9, R9
	JEQ   dwSingleStore
	ROW1(R8, Y13, Y14, Y15)

dwSingleStore:
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX

dwTail:
	MOVQ CX, R10
	SUBQ AX, R10            // r = len(o) mod 8
	JEQ  dwDone
	LEAQ tailMask<>(SB), R11
	NEGQ R10
	VMOVUPS 32(R11)(R10*4), Y4
	VMOVAPS Y6, Y0
	ROWM(SI, Y7, Y8, Y9)
	ROWM(DX, Y10, Y11, Y12)
	TESTQ R9, R9
	JEQ   dwTailStore
	ROWM(R8, Y13, Y14, Y15)

dwTailStore:
	VMASKMOVPS Y0, Y4, (DI)(AX*4)

dwDone:
	VZEROUPPER
	RET

// The AVX2 body of the int8 microkernel (qgemmPanelRows, qgemm.go): one
// unit of six pixels against a panel's four-column groups, eight columns
// at a time. A panel group's K-quad is 16 bytes, four codes of each of
// its four columns; VPMOVSXBW widens it to int16, and VPMADDWD against a
// pixel's four int16 codes broadcast to every quarter (VPBROADCASTQ)
// gives each column two int32 partial sums. The K-block's quads
// accumulate into them with VPADDD; then VPHADDD adds each pair and
// VPERMQ puts the eight columns in order. Every step is integer and
// exact: a VPMADDWD pair is at most 2*127*127, far from saturating, and
// an int32 sum of products is the same in any order, so the accumulators
// hold the Go loop's values bit for bit.

// QPIX accumulates pixel OFF/128's quad at AX against the group's two
// widened quads in Y12 and Y13 into A (columns 0-3) and B (4-7).
#define QPIX(OFF, A, B) \
	VPBROADCASTQ OFF(DX)(AX*1), Y14; \
	VPMADDWD     Y14, Y12, Y15; \
	VPADDD       Y15, A, A; \
	VPMADDWD     Y14, Y13, Y15; \
	VPADDD       Y15, B, B

// QFOLD folds a pixel's pair sums in A and B into its eight columns in
// order, in A.
#define QFOLD(A, B) \
	VPHADDD B, A, A; \
	VPERMQ  $0xD8, A, A

// func qgemmUnitAVX2(dst []int32, n, rows int, codes []int16, panel []byte, kb4, cols int)
//
// dst[p*n+c] += sum over g < kb4 of codes[p*64+g] * panel column c's code
// g, for the pixels p < rows of a unit and the columns c < cols, cols a
// multiple of four: the K-block's dot products for every full group of
// four columns. The six pixels' accumulators (Y0-Y11) are zeroed per
// group of eight columns, carried across all the quads and added into
// dst once; a last group of four reads its quads twice (Y13 = Y12) and
// stores only its low half. Pixels past rows are computed, never stored.
// The caller has checked every bound.
TEXT ·qgemmUnitAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ n+24(FP), BX
	MOVQ rows+32(FP), CX
	MOVQ codes_base+40(FP), DX
	MOVQ panel_base+64(FP), SI
	MOVQ kb4+88(FP), R13
	MOVQ cols+96(FP), R9
	SHLQ $2, BX             // a row's stride in bytes
	LEAQ (BX)(BX*2), R11    // three rows'
	LEAQ 0(R13*4), R8       // a four-column group's panel bytes
	SHLQ $1, R13            // a pixel's codes' bytes: the quad loop's end

qGroup:
	TESTQ R9, R9
	JEQ   qDone
	MOVQ  SI, R10
	CMPQ  R9, $8
	JLT   qZero
	ADDQ  R8, R10

qZero:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	VPXOR Y8, Y8, Y8
	VPXOR Y9, Y9, Y9
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	XORQ  AX, AX

qQuad:
	VPMOVSXBW (SI)(AX*2), Y12
	VPMOVSXBW (R10)(AX*2), Y13
	QPIX(0, Y0, Y1)
	QPIX(128, Y2, Y3)
	QPIX(256, Y4, Y5)
	QPIX(384, Y6, Y7)
	QPIX(512, Y8, Y9)
	QPIX(640, Y10, Y11)
	ADDQ $8, AX
	CMPQ AX, R13
	JNE  qQuad
	QFOLD(Y0, Y1)
	QFOLD(Y2, Y3)
	QFOLD(Y4, Y5)
	QFOLD(Y6, Y7)
	QFOLD(Y8, Y9)
	QFOLD(Y10, Y11)
	LEAQ (DI)(BX*4), R12    // row 4
	CMPQ R9, $8
	JLT  qHalf
	VPADDD  (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	CMPQ    CX, $2
	JLT     qNext
	VPADDD  (DI)(BX*1), Y2, Y2
	VMOVDQU Y2, (DI)(BX*1)
	CMPQ    CX, $3
	JLT     qNext
	VPADDD  (DI)(BX*2), Y4, Y4
	VMOVDQU Y4, (DI)(BX*2)
	CMPQ    CX, $4
	JLT     qNext
	VPADDD  (DI)(R11*1), Y6, Y6
	VMOVDQU Y6, (DI)(R11*1)
	CMPQ    CX, $5
	JLT     qNext
	VPADDD  (R12), Y8, Y8
	VMOVDQU Y8, (R12)
	CMPQ    CX, $6
	JLT     qNext
	VPADDD  (R12)(BX*1), Y10, Y10
	VMOVDQU Y10, (R12)(BX*1)

qNext:
	ADDQ $32, DI
	LEAQ (SI)(R8*2), SI
	SUBQ $8, R9
	JMP  qGroup

qHalf:
	VPADDD  (DI), X0, X0
	VMOVDQU X0, (DI)
	CMPQ    CX, $2
	JLT     qDone
	VPADDD  (DI)(BX*1), X2, X2
	VMOVDQU X2, (DI)(BX*1)
	CMPQ    CX, $3
	JLT     qDone
	VPADDD  (DI)(BX*2), X4, X4
	VMOVDQU X4, (DI)(BX*2)
	CMPQ    CX, $4
	JLT     qDone
	VPADDD  (DI)(R11*1), X6, X6
	VMOVDQU X6, (DI)(R11*1)
	CMPQ    CX, $5
	JLT     qDone
	VPADDD  (R12), X8, X8
	VMOVDQU X8, (R12)
	CMPQ    CX, $6
	JLT     qDone
	VPADDD  (R12)(BX*1), X10, X10
	VMOVDQU X10, (R12)(BX*1)

qDone:
	VZEROUPPER
	RET

// func qmacChainsAVX2(steps int) int32
//
// Twelve independent chains of eight int32 lanes, each step x =
// VPMADDWD(x, m) + c as a VPMADDWD and then a VPADDD: the int8 body's
// multiply-accumulate on the vector ports, sixteen int16 products a
// VPMADDWD.
TEXT ·qmacChainsAVX2(SB), NOSPLIT, $0-12
	MOVQ steps+0(FP), CX
	MOVQ ·probeSeed(SB), AX
	LEAQ 0x30005(AX), BX    // the int16 pair (5, 3) in every dword
	MOVQ BX, X13
	VPBROADCASTD X13, Y13
	LEAQ 1(AX), BX
	MOVQ BX, X14
	VPBROADCASTD X14, Y14
	VMOVDQU Y14, Y0
	VPADDD  Y14, Y0, Y1
	VPADDD  Y14, Y1, Y2
	VPADDD  Y14, Y2, Y3
	VPADDD  Y14, Y3, Y4
	VPADDD  Y14, Y4, Y5
	VPADDD  Y14, Y5, Y6
	VPADDD  Y14, Y6, Y7
	VPADDD  Y14, Y7, Y8
	VPADDD  Y14, Y8, Y9
	VPADDD  Y14, Y9, Y10
	VPADDD  Y14, Y10, Y11
	TESTQ CX, CX
	JLE   qmacSum

qmacStep:
	VPMADDWD Y13, Y0, Y0
	VPMADDWD Y13, Y1, Y1
	VPMADDWD Y13, Y2, Y2
	VPMADDWD Y13, Y3, Y3
	VPMADDWD Y13, Y4, Y4
	VPMADDWD Y13, Y5, Y5
	VPMADDWD Y13, Y6, Y6
	VPMADDWD Y13, Y7, Y7
	VPMADDWD Y13, Y8, Y8
	VPMADDWD Y13, Y9, Y9
	VPMADDWD Y13, Y10, Y10
	VPMADDWD Y13, Y11, Y11
	VPADDD   Y14, Y0, Y0
	VPADDD   Y14, Y1, Y1
	VPADDD   Y14, Y2, Y2
	VPADDD   Y14, Y3, Y3
	VPADDD   Y14, Y4, Y4
	VPADDD   Y14, Y5, Y5
	VPADDD   Y14, Y6, Y6
	VPADDD   Y14, Y7, Y7
	VPADDD   Y14, Y8, Y8
	VPADDD   Y14, Y9, Y9
	VPADDD   Y14, Y10, Y10
	VPADDD   Y14, Y11, Y11
	DECQ CX
	JNZ  qmacStep

qmacSum:
	VPXOR  Y1, Y0, Y0
	VPXOR  Y3, Y2, Y2
	VPXOR  Y5, Y4, Y4
	VPXOR  Y7, Y6, Y6
	VPXOR  Y9, Y8, Y8
	VPXOR  Y11, Y10, Y10
	VPXOR  Y2, Y0, Y0
	VPXOR  Y6, Y4, Y4
	VPXOR  Y10, Y8, Y8
	VPXOR  Y4, Y0, Y0
	VPXOR  Y8, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPXOR  X1, X0, X0
	VZEROUPPER
	MOVQ X0, AX
	MOVL AX, ret+8(FP)
	RET

// The AVX2 body of the int8 requantize store (storeInt8, qprepack.go): an
// 8x8 block of the band's pixel-major accumulators, eight pixels' rows of
// eight channels, is converted and scaled row by row — each lane
// requantizeStrided's float32(acc)*scale, rounded, then + bias, the
// product first in both (VMULPS, VADDPS), and the ReLU/ReLU6 clamp as
// epilogueAVX2 clamps — and then transposed in registers, so each channel
// stores its eight pixels in one contiguous write.

// RQROW converts, scales and biases the accumulator row at ADDR into R.
#define RQROW(ADDR, R) \
	VCVTDQ2PS ADDR, R; \
	VMULPS    Y12, R, R; \
	VADDPS    Y13, R, R

// RQCLAMP clamps R to [0, hi] as epilogueAVX2 does, through Y8.
#define RQCLAMP(R) \
	VCMPPS    $0x11, Y15, R, Y8; \
	VANDNPS   R, Y8, R; \
	VCMPPS    $0x1e, Y14, R, Y8; \
	VBLENDVPS Y8, Y14, R, R

// func requantizeAVX2(out []float32, ncols int, acc []int32, cout, npix int, scale, bias *[8]float32, hi float32, clamp bool)
//
// out[k*ncols+i] = act(float32(acc[i*cout+k])*scale[k] + bias[k]) for
// the channels k < 8 and the pixels i < npix, npix a multiple of eight;
// act clamps to [0, hi] when clamp is set and is the identity otherwise.
// The caller has checked every bound.
TEXT ·requantizeAVX2(SB), NOSPLIT, $0-93
	MOVQ out_base+0(FP), DI
	MOVQ ncols+24(FP), R8
	MOVQ acc_base+32(FP), SI
	MOVQ cout+56(FP), R10
	MOVQ npix+64(FP), CX
	MOVQ scale+72(FP), BX
	MOVQ bias+80(FP), DX
	VBROADCASTSS hi+88(FP), Y14
	MOVBQZX clamp+92(FP), AX
	VMOVUPS (BX), Y12
	VMOVUPS (DX), Y13
	VXORPS  Y15, Y15, Y15
	SHLQ $2, R8             // a channel's stride in bytes
	LEAQ (R8)(R8*2), R9     // three channels'
	SHLQ $2, R10            // a pixel's stride in bytes
	LEAQ (R10)(R10*2), R11  // three pixels'

rqBlock:
	TESTQ CX, CX
	JEQ   rqDone
	LEAQ  (SI)(R10*4), R12
	RQROW((SI), Y0)
	RQROW((SI)(R10*1), Y1)
	RQROW((SI)(R10*2), Y2)
	RQROW((SI)(R11*1), Y3)
	RQROW((R12), Y4)
	RQROW((R12)(R10*1), Y5)
	RQROW((R12)(R10*2), Y6)
	RQROW((R12)(R11*1), Y7)
	TESTQ AX, AX
	JEQ   rqTranspose
	RQCLAMP(Y0)
	RQCLAMP(Y1)
	RQCLAMP(Y2)
	RQCLAMP(Y3)
	RQCLAMP(Y4)
	RQCLAMP(Y5)
	RQCLAMP(Y6)
	RQCLAMP(Y7)

rqTranspose:
	// Pairs of rows interleaved: t0 = Y8, t1 = Y9, t2 = Y0, t3 = Y1,
	// t4 = Y10, t5 = Y11, t6 = Y2, t7 = Y3.
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y0
	VUNPCKHPS Y3, Y2, Y1
	VUNPCKLPS Y5, Y4, Y10
	VUNPCKHPS Y5, Y4, Y11
	VUNPCKLPS Y7, Y6, Y2
	VUNPCKHPS Y7, Y6, Y3
	// Quads: pixels 0-3 of channels 0|4, 1|5, 2|6, 3|7 in Y4-Y7, pixels
	// 4-7 of them in Y0, Y1, Y8, Y9.
	VSHUFPS $0x44, Y0, Y8, Y4
	VSHUFPS $0xEE, Y0, Y8, Y5
	VSHUFPS $0x44, Y1, Y9, Y6
	VSHUFPS $0xEE, Y1, Y9, Y7
	VSHUFPS $0x44, Y2, Y10, Y0
	VSHUFPS $0xEE, Y2, Y10, Y1
	VSHUFPS $0x44, Y3, Y11, Y8
	VSHUFPS $0xEE, Y3, Y11, Y9
	// Halves joined: each channel's eight pixels, stored.
	LEAQ (DI)(R8*4), R12
	VPERM2F128 $0x20, Y0, Y4, Y10
	VMOVUPS    Y10, (DI)
	VPERM2F128 $0x31, Y0, Y4, Y10
	VMOVUPS    Y10, (R12)
	VPERM2F128 $0x20, Y1, Y5, Y10
	VMOVUPS    Y10, (DI)(R8*1)
	VPERM2F128 $0x31, Y1, Y5, Y10
	VMOVUPS    Y10, (R12)(R8*1)
	VPERM2F128 $0x20, Y8, Y6, Y10
	VMOVUPS    Y10, (DI)(R8*2)
	VPERM2F128 $0x31, Y8, Y6, Y10
	VMOVUPS    Y10, (R12)(R8*2)
	VPERM2F128 $0x20, Y9, Y7, Y10
	VMOVUPS    Y10, (DI)(R9*1)
	VPERM2F128 $0x31, Y9, Y7, Y10
	VMOVUPS    Y10, (R12)(R9*1)
	LEAQ (SI)(R10*8), SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  rqBlock

rqDone:
	VZEROUPPER
	RET
