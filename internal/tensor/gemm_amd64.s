#include "textflag.h"

// The AVX2 body of pointwiseQuads (gemm.go), eight pixels to a YMM
// register, one lane per output. Each lane computes the Go loop's
// expression for its pixel, operation for operation and in its order:
// o + (((x0*a0 + x1*a1) + x2*a2) + x3*a3), every product a VMULPS with
// the input first and every sum a VADDPS with the running sum first,
// rounded apart. No FMA: one rounding in place of two would move the
// bits.

// tailMask<>+4*(16-r) is the mask of the first r lanes of eight: sixteen
// all-ones lanes, then sixteen zero lanes, so r may run from -8 (no lane)
// to 16 (every lane).
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0xffffffffffffffff
DATA tailMask<>+40(SB)/8, $0xffffffffffffffff
DATA tailMask<>+48(SB)/8, $0xffffffffffffffff
DATA tailMask<>+56(SB)/8, $0xffffffffffffffff
DATA tailMask<>+64(SB)/8, $0
DATA tailMask<>+72(SB)/8, $0
DATA tailMask<>+80(SB)/8, $0
DATA tailMask<>+88(SB)/8, $0
DATA tailMask<>+96(SB)/8, $0
DATA tailMask<>+104(SB)/8, $0
DATA tailMask<>+112(SB)/8, $0
DATA tailMask<>+120(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $128

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
	VMOVUPS 64(R12)(CX*4), Y10
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

// The AVX2 body of the FP32 epilogue (applyEpilogueSpan, fused.go) and of
// the int8 requantize (requantizeRow, qgemm.go), one lane per element.
// Each lane runs the Go loops' operations in their order, rounded apart:
// the int32 accumulator converted to float32 (mode&epiConvert, a
// VCVTDQ2PS: exact up to 2^24, round to nearest even past it, as Go's
// float32(int32) is; the int8 requantize's own loop), v + b
// (mode&epiBias), then v*scale as a VMULPS and
// +shift as a VADDPS (mode&epiAffine), then clamp (mode&epiClamp) as two
// ordered compares, which are false on a NaN: v < +0 selects +0.0 through
// a VANDNPS, then v > hi selects hi through a VBLENDVPS. That is
// `if v < 0 {0} else if v > hi {hi}` for every bit pattern, as clamp is:
// -0.0 and NaNs pass, -Inf goes to +0.0 and +Inf to hi.

// EPICLAMP clamps Y0 to [0, hi] (hi in Y14, +0.0 in Y15), through Y1:
// VCMPPS $0x11 is LT_OQ, v < +0; $0x1e is GT_OQ, v > hi.
#define EPICLAMP \
	VCMPPS    $0x11, Y15, Y0, Y1; \
	VANDNPS   Y0, Y1, Y0; \
	VCMPPS    $0x1e, Y14, Y0, Y1; \
	VBLENDVPS Y1, Y14, Y0, Y0

// func epilogueAVX2(seg []float32, b, scale, shift, hi float32, mode int)
//
// Eight elements at a time, the last len(seg) mod 8 through the same
// operations on masked loads and stores, so no element's operations
// depend on where the span starts or ends. A mode with epiConvert takes a
// loop of its own (rqLoop), chosen once per call, which converts, then
// always applies the affine and never the bias, so the FP32 loop runs no
// test for it.
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
	VMOVUPS 64(R8)(DX*4), Y10
	XORQ AX, AX
	TESTQ $8, BX
	JNE   rqLoop

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
	EPICLAMP

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

	// With epiConvert: the same loop on each element's int32 bits,
	// converted, then the affine and the clamp when mode has it.
rqLoop:
	CMPQ AX, CX
	JEQ  rqTailLoad
	VMOVUPS (DI)(AX*4), Y0
	JMP  rqBody

rqTailLoad:
	TESTQ DX, DX
	JEQ   epiDone
	VMASKMOVPS (DI)(AX*4), Y10, Y0

rqBody:
	VCVTDQ2PS Y0, Y0
	VMULPS    Y12, Y0, Y0
	VADDPS    Y13, Y0, Y0
	TESTQ     $4, BX
	JEQ       rqStore
	EPICLAMP

rqStore:
	CMPQ AX, CX
	JEQ  rqTailStore
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  rqLoop

rqTailStore:
	VMASKMOVPS Y0, Y10, (DI)(AX*4)
	VZEROUPPER
	RET

// The AVX2 body of the 3x3 depthwise convolution (depthwiseRows,
// conv.go), one lane per output column. Each output runs depthwisePixel's
// chain: b, then += in*tap for the taps its window has in bounds, in
// (ky, kx) order, every product a VMULPS (VMULSS at an edge column) with
// the input first and every sum a VADDPS (VADDSS) with the running sum
// first, rounded apart. No FMA. A padded tap is skipped, never multiplied
// by +0.0, which would turn a -0.0 sum into +0.0 and an Inf tap into NaN.

// ROW1 accumulates one input row at P against the taps TA, TB, TC into
// the stride-1 group of eight at AX, in Y0.
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

// ROWM is ROW1 for a group at column 0 on loads masked by Y4.
#define ROWM(P, TA, TB, TC) \
	VMASKMOVPS 0(P), Y4, Y2; \
	VMULPS     TA, Y2, Y2; \
	VADDPS     Y2, Y0, Y0; \
	VMASKMOVPS 4(P), Y4, Y2; \
	VMULPS     TB, Y2, Y2; \
	VADDPS     Y2, Y0, Y0; \
	VMASKMOVPS 8(P), Y4, Y2; \
	VMULPS     TC, Y2, Y2; \
	VADDPS     Y2, Y0, Y0

// S2TAPS accumulates the three taps of a stride-2 row, its group's first
// sixteen inputs in Y1 and Y2, the eight from input 2 in Y3 and the eight
// that end at input 16 in Y4, into Y0. Each VSHUFPS takes the evens
// (kx = 0), the odds (kx = 1) and the evens from +2 (kx = 2) of every
// 128-bit half, as maxPoolRowAVX2's does, which leaves outputs
// 0 1 4 5 | 2 3 6 7 in the lanes of all three alike: the sums stay in that
// order until a VPERMPD puts them back before the store.
#define S2TAPS(TA, TB, TC) \
	VSHUFPS $0x88, Y2, Y1, Y5; \
	VMULPS  TA, Y5, Y5; \
	VADDPS  Y5, Y0, Y0; \
	VSHUFPS $0xDD, Y2, Y1, Y5; \
	VMULPS  TB, Y5, Y5; \
	VADDPS  Y5, Y0, Y0; \
	VSHUFPS $0xD8, Y4, Y3, Y5; \
	VMULPS  TC, Y5, Y5; \
	VADDPS  Y5, Y0, Y0

// S2ROW accumulates one input row at P into the stride-2 group of eight
// at AX, which reads P[2*AX : 2*AX+17].
#define S2ROW(P, TA, TB, TC) \
	VMOVUPS 0(P)(AX*8), Y1; \
	VMOVUPS 32(P)(AX*8), Y2; \
	VMOVUPS 8(P)(AX*8), Y3; \
	VMOVUPS 36(P)(AX*8), Y4; \
	S2TAPS(TA, TB, TC)

// S2ROWM is S2ROW for a group at column 0 on loads masked by the four
// masks at R13, one for each load.
#define S2ROWM(P, TA, TB, TC) \
	VMOVUPS    0(R13), Y1; \
	VMASKMOVPS 0(P), Y1, Y1; \
	VMOVUPS    32(R13), Y2; \
	VMASKMOVPS 32(P), Y2, Y2; \
	VMOVUPS    64(R13), Y3; \
	VMASKMOVPS 8(P), Y3, Y3; \
	VMOVUPS    96(R13), Y4; \
	VMASKMOVPS 36(P), Y4, Y4; \
	S2TAPS(TA, TB, TC)

// EDGEROW accumulates the two in-bounds taps TA, TB of an edge column's
// window row at P+R13 into X0.
#define EDGEROW(P, TA, TB) \
	VMOVSS 0(P)(R13*1), X2; \
	VMULSS TA, X2, X2; \
	VADDSS X2, X0, X0; \
	VMOVSS 4(P)(R13*1), X2; \
	VMULSS TB, X2, X2; \
	VADDSS X2, X0, X0

// func depthwiseAVX2(o, plane, t []float32, b float32, iy0, wd, wout, stride, lo, hi int)
//
// The output rows in o, wout columns each, of one channel's 3x3
// depthwise convolution at stride 1 or 2 of the plane, wd columns wide,
// against taps t[0:9]; the first row's window starts at plane row iy0,
// -1 where its top row is padding. Output columns [lo, hi) have every
// window column in bounds; column 0 when lo is 1 and column hi when hi <
// wout each miss one, and take two taps a window row in VMULSS and VADDSS.
// A window row in the padding — the top one when its row index is below
// 0, the bottom one at or past the plane's end — is skipped, per group,
// by comparing its pointer with the plane's bounds (SI, DX). The taps and
// b are broadcast once per call. The interior runs a group of eight at a
// time; a last partial group is the overlapping group ending at hi, which
// writes the same bits again. Rows with fewer than eight interior columns
// run one group on loads and a store masked to what it reads and writes.
// The caller has checked every bound and that the geometry is one
// depthwise3x3Fits takes, so no load leaves the plane and no store
// leaves o.
//
// Frame: the stride-2 group's four load masks at 0-127, the store mask
// (also stride 1's load mask) at 128, the edges' input offsets from a
// row's interior at 160 and 168, a row's bytes in o at 176.
TEXT ·depthwiseAVX2(SB), NOSPLIT, $184-128
	MOVQ t_base+48(FP), BX
	VBROADCASTSS b+72(FP), Y6
	VBROADCASTSS 0(BX), Y7
	VBROADCASTSS 4(BX), Y8
	VBROADCASTSS 8(BX), Y9
	VBROADCASTSS 12(BX), Y10
	VBROADCASTSS 16(BX), Y11
	VBROADCASTSS 20(BX), Y12
	VBROADCASTSS 24(BX), Y13
	VBROADCASTSS 28(BX), Y14
	VBROADCASTSS 32(BX), Y15
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), R12
	MOVQ plane_base+24(FP), SI
	MOVQ plane_len+32(FP), DX
	MOVQ wd+88(FP), AX
	MOVQ stride+104(FP), BX
	MOVQ lo+112(FP), CX
	XORQ R13, R13           // x0, the interior's first input column:
	CMPQ BX, $2             // lo at stride 2, 0 at stride 1
	CMOVQEQ CX, R13
	LEAQ (DI)(CX*4), DI     // the first row's interior
	LEAQ (DI)(R12*4), R12   // and the end of o, moved as far
	LEAQ (SI)(DX*4), DX
	LEAQ (DX)(R13*4), DX    // a row pointer at or past DX is padding
	MOVQ iy0+80(FP), R8
	IMULQ AX, R8
	LEAQ (SI)(R8*4), R8
	LEAQ (R8)(R13*4), R8    // the window's top row
	LEAQ (R8)(AX*4), R9
	LEAQ (R9)(AX*4), R10
	LEAQ (SI)(R13*4), SI    // a row pointer below SI is padding
	MOVQ R13, R11
	SHLQ $2, R11
	NEGQ R11
	MOVQ R11, 160(SP)       // the left edge reads columns 0 and 1
	LEAQ -2(AX), R11
	SUBQ R13, R11
	SHLQ $2, R11
	MOVQ R11, 168(SP)       // the right edge wd-2 and wd-1
	MOVQ wout+96(FP), R11
	SHLQ $2, R11
	MOVQ R11, 176(SP)
	IMULQ AX, BX
	SHLQ $2, BX             // the rows' step in the plane
	MOVQ hi+120(FP), CX
	SUBQ lo+112(FP), CX     // n, the interior columns
	CMPQ CX, $8
	JCC  dwRow
	LEAQ tailMask<>+64(SB), R11 // the first k lanes at R11-4k
	MOVQ CX, AX
	NEGQ AX
	VMOVUPS -4(R11)(AX*8), Y0   // inputs 0 to 2n of the group's 17
	VMOVUPS Y0, 0(SP)
	VMOVUPS 28(R11)(AX*8), Y0   // 8 to 2n
	VMOVUPS Y0, 32(SP)
	VMOVUPS 4(R11)(AX*8), Y0    // 2 to 2n
	VMOVUPS Y0, 64(SP)
	VMOVUPS 32(R11)(AX*8), Y0   // 9 to 2n
	VMOVUPS Y0, 96(SP)
	VMOVUPS (R11)(AX*4), Y0     // outputs 0 to n-1
	VMOVUPS Y0, 128(SP)

dwRow:
	CMPQ DI, R12
	JCC  dwDone
	CMPQ lo+112(FP), $0
	JEQ  dwInterior
	MOVQ 160(SP), R13
	VMOVAPS X6, X0
	CMPQ R8, SI
	JCS  dwLeftMid
	EDGEROW(R8, X8, X9)

dwLeftMid:
	EDGEROW(R9, X11, X12)
	CMPQ R10, DX
	JCC  dwLeftStore
	EDGEROW(R10, X14, X15)

dwLeftStore:
	VMOVSS X0, -4(DI)

dwInterior:
	XORQ AX, AX
	MOVQ CX, R11
	SUBQ $8, R11            // the last group's first column
	JCS  dwMasked
	CMPQ stride+104(FP), $2
	JEQ  dwS2

dwS1:
	CMPQ AX, CX
	JEQ  dwRight
	CMPQ AX, R11
	JLE  dwS1One
	MOVQ R11, AX

dwS1One:
	VMOVAPS Y6, Y0
	CMPQ R8, SI
	JCS  dwS1OneMid
	ROW1(R8, Y7, Y8, Y9)

dwS1OneMid:
	ROW1(R9, Y10, Y11, Y12)
	CMPQ R10, DX
	JCC  dwS1OneStore
	ROW1(R10, Y13, Y14, Y15)

dwS1OneStore:
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  dwS1

dwS2:
	CMPQ AX, CX
	JEQ  dwRight
	CMPQ AX, R11
	JLE  dwS2One
	MOVQ R11, AX

dwS2One:
	VMOVAPS Y6, Y0
	CMPQ R8, SI
	JCS  dwS2OneMid
	S2ROW(R8, Y7, Y8, Y9)

dwS2OneMid:
	S2ROW(R9, Y10, Y11, Y12)
	CMPQ R10, DX
	JCC  dwS2OneStore
	S2ROW(R10, Y13, Y14, Y15)

dwS2OneStore:
	VPERMPD $0xD8, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  dwS2

dwMasked:
	TESTQ CX, CX
	JEQ   dwRight
	VMOVAPS Y6, Y0
	CMPQ stride+104(FP), $2
	JEQ  dwS2Masked
	VMOVUPS 128(SP), Y4
	CMPQ R8, SI
	JCS  dwS1MaskedMid
	ROWM(R8, Y7, Y8, Y9)

dwS1MaskedMid:
	ROWM(R9, Y10, Y11, Y12)
	CMPQ R10, DX
	JCC  dwMaskedStore
	ROWM(R10, Y13, Y14, Y15)
	JMP  dwMaskedStore

dwS2Masked:
	LEAQ 0(SP), R13
	CMPQ R8, SI
	JCS  dwS2MaskedMid
	S2ROWM(R8, Y7, Y8, Y9)

dwS2MaskedMid:
	S2ROWM(R9, Y10, Y11, Y12)
	CMPQ R10, DX
	JCC  dwS2MaskedPerm
	S2ROWM(R10, Y13, Y14, Y15)

dwS2MaskedPerm:
	VPERMPD $0xD8, Y0, Y0

dwMaskedStore:
	VMOVUPS    128(SP), Y4
	VMASKMOVPS Y0, Y4, (DI)

dwRight:
	MOVQ hi+120(FP), R11
	CMPQ R11, wout+96(FP)
	JEQ  dwNext
	MOVQ 168(SP), R13
	VMOVAPS X6, X0
	CMPQ R8, SI
	JCS  dwRightMid
	EDGEROW(R8, X7, X8)

dwRightMid:
	EDGEROW(R9, X10, X11)
	CMPQ R10, DX
	JCC  dwRightStore
	EDGEROW(R10, X13, X14)

dwRightStore:
	VMOVSS X0, (DI)(CX*4)

dwNext:
	ADDQ 176(SP), DI
	ADDQ BX, R8
	ADDQ BX, R9
	ADDQ BX, R10
	JMP  dwRow

dwDone:
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

// The AVX2 body of the int8 microkernel (qpointwiseQuads, qgemm.go): the
// channel-major product of pointwiseQuadsAVX2 on int8 codes, eight pixels
// to a YMM register, one int32 lane per output. A pair row of the input
// holds each pixel's codes of two consecutive K rows as an int16 pair, so
// a 32-byte load is eight pixels' pairs; VPMADDWD against a channel's
// weight pair broadcast to every lane (VPBROADCASTD, from the weights
// widened to int16 on the frame) gives each pixel x0*w0 + x1*w1, which
// VPADDD adds into its accumulator. Every step is integer and exact: a
// pair sum is at most 2*127*127 in magnitude, far from VPMADDWD's
// saturation, and an int32 sum of products is the same in any order, so
// the accumulators hold the Go loop's values bit for bit.

// QPAIR16 accumulates the pair row at R12 against w0's pair at W(R8) and
// w1's at W(R10), R13 bytes into the widened rows, for sixteen pixels:
// into Y0 and Y1 (o0) and Y2 and Y3 (o1).
#define QPAIR16(W) \
	VMOVDQU      (R12), Y4; \
	VMOVDQU      32(R12), Y5; \
	VPBROADCASTD W(R8)(R13*1), Y6; \
	VPMADDWD     Y6, Y4, Y7; \
	VPADDD       Y7, Y0, Y0; \
	VPMADDWD     Y6, Y5, Y7; \
	VPADDD       Y7, Y1, Y1; \
	VPBROADCASTD W(R10)(R13*1), Y6; \
	VPMADDWD     Y6, Y4, Y7; \
	VPADDD       Y7, Y2, Y2; \
	VPMADDWD     Y6, Y5, Y7; \
	VPADDD       Y7, Y3, Y3

// QPAIR8 is QPAIR16 for the eight pixels of Y4, loaded by the caller,
// into Y0 (o0) and Y2 (o1).
#define QPAIR8(W) \
	VPBROADCASTD W(R8)(R13*1), Y6; \
	VPMADDWD     Y6, Y4, Y7; \
	VPADDD       Y7, Y0, Y0; \
	VPBROADCASTD W(R10)(R13*1), Y6; \
	VPMADDWD     Y6, Y4, Y7; \
	VPADDD       Y7, Y2, Y2

// func qpointwiseQuadsAVX2(o0, o1 []int32, x []int16, stride int, w0, w1 []int8)
//
// Pixels [0, len(o0)) of both rows, every K-quad of w0 and w1. First w0
// and w1 are widened to int16 on the frame, sixteen codes a VPMOVSXBW,
// the last len(w0) mod 16 one at a time and zeros up to the quad. Then
// sixteen pixels at a time, then eight, the accumulators loaded once,
// carried across all the quads (two pair rows, stride int16s apart) and
// stored once; the last len(o0) mod 8 pixels run the same loop on masked
// loads and stores, which touch no element past the run. The caller has
// checked every bound, that len(w0) is at most 128 and that there is at
// least one code.
TEXT ·qpointwiseQuadsAVX2(SB), $512-128
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX
	MOVQ o1_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ stride+72(FP), BX
	MOVQ w0_base+80(FP), R11
	MOVQ w0_len+88(FP), R9
	MOVQ w1_base+104(FP), R12
	LEAQ 0(SP), R8          // w0 widened
	LEAQ 256(SP), R10       // w1 widened
	XORQ AX, AX
	MOVQ R9, R13
	ANDQ $-16, R13

qWiden16:
	CMPQ AX, R13
	JEQ  qWiden1
	VPMOVSXBW (R11)(AX*1), Y0
	VMOVDQU   Y0, (R8)(AX*2)
	VPMOVSXBW (R12)(AX*1), Y1
	VMOVDQU   Y1, (R10)(AX*2)
	ADDQ $16, AX
	JMP  qWiden16

qWiden1:
	CMPQ AX, R9
	JEQ  qWidenPad
	MOVBWSX (R11)(AX*1), R13
	MOVW    R13, (R8)(AX*2)
	MOVBWSX (R12)(AX*1), R13
	MOVW    R13, (R10)(AX*2)
	INCQ AX
	JMP  qWiden1

qWidenPad:
	TESTQ $3, AX
	JEQ   qWidened
	MOVW $0, (R8)(AX*2)
	MOVW $0, (R10)(AX*2)
	INCQ AX
	JMP  qWidenPad

qWidened:
	LEAQ 0(AX*2), R9        // the quads' weight bytes
	SHLQ $1, BX             // a pair row's stride in bytes
	XORQ AX, AX             // the group's first pixel
	MOVQ CX, R11
	ANDQ $-16, R11          // the pairs of groups' pixels

q16:
	CMPQ AX, R11
	JEQ  q8
	VMOVDQU (DI)(AX*4), Y0
	VMOVDQU 32(DI)(AX*4), Y1
	VMOVDQU (SI)(AX*4), Y2
	VMOVDQU 32(SI)(AX*4), Y3
	LEAQ    (DX)(AX*4), R12
	XORQ    R13, R13

q16Quad:
	QPAIR16(0)
	ADDQ    BX, R12
	QPAIR16(4)
	ADDQ    BX, R12
	ADDQ    $8, R13
	CMPQ    R13, R9
	JNE     q16Quad
	VMOVDQU Y0, (DI)(AX*4)
	VMOVDQU Y1, 32(DI)(AX*4)
	VMOVDQU Y2, (SI)(AX*4)
	VMOVDQU Y3, 32(SI)(AX*4)
	ADDQ    $16, AX
	JMP     q16

q8:
	MOVQ CX, R11
	ANDQ $-8, R11
	CMPQ AX, R11
	JEQ  qTail
	VMOVDQU (DI)(AX*4), Y0
	VMOVDQU (SI)(AX*4), Y2
	LEAQ    (DX)(AX*4), R12
	XORQ    R13, R13

q8Quad:
	VMOVDQU (R12), Y4
	QPAIR8(0)
	ADDQ    BX, R12
	VMOVDQU (R12), Y4
	QPAIR8(4)
	ADDQ    BX, R12
	ADDQ    $8, R13
	CMPQ    R13, R9
	JNE     q8Quad
	VMOVDQU Y0, (DI)(AX*4)
	VMOVDQU Y2, (SI)(AX*4)
	ADDQ    $8, AX

qTail:
	SUBQ AX, CX             // r = len(o0) mod 8
	JEQ  qDone
	LEAQ tailMask<>(SB), R12
	NEGQ CX
	VMOVDQU 64(R12)(CX*4), Y5
	VPMASKMOVD (DI)(AX*4), Y5, Y0
	VPMASKMOVD (SI)(AX*4), Y5, Y2
	LEAQ    (DX)(AX*4), R12
	XORQ    R13, R13

qTailQuad:
	VPMASKMOVD (R12), Y5, Y4
	QPAIR8(0)
	ADDQ       BX, R12
	VPMASKMOVD (R12), Y5, Y4
	QPAIR8(4)
	ADDQ       BX, R12
	ADDQ       $8, R13
	CMPQ       R13, R9
	JNE        qTailQuad
	VPMASKMOVD Y0, Y5, (DI)(AX*4)
	VPMASKMOVD Y2, Y5, (SI)(AX*4)

qDone:
	VZEROUPPER
	RET

// func interleaveAVX2(dst, a, b []int16)
//
// dst[2i] = a[i] and dst[2i+1] = b[i] for i < len(a), a multiple of
// sixteen: VPUNPCKLWD and VPUNPCKHWD pair each half-lane's codes, and
// VPERM2I128 puts the four runs of four pixels back in order. The caller
// has checked every bound.
TEXT ·interleaveAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	XORQ AX, AX

ilLoop:
	CMPQ AX, CX
	JEQ  ilDone
	VMOVDQU    (SI)(AX*2), Y0
	VMOVDQU    (DX)(AX*2), Y1
	VPUNPCKLWD Y1, Y0, Y2   // pixels 0-3 | 8-11
	VPUNPCKHWD Y1, Y0, Y3   // pixels 4-7 | 12-15
	VPERM2I128 $0x20, Y3, Y2, Y4
	VPERM2I128 $0x31, Y3, Y2, Y5
	VMOVDQU    Y4, (DI)(AX*4)
	VMOVDQU    Y5, 32(DI)(AX*4)
	ADDQ $16, AX
	JMP  ilLoop

ilDone:
	VZEROUPPER
	RET

// poolFloor<> is negInf, −MaxFloat32: maxPoolWindow's running max before
// its first tap.
DATA poolFloor<>+0(SB)/4, $0xff7fffff
GLOBL poolFloor<>(SB), RODATA|NOPTR, $4

// POOLROW folds the three taps of input row P into Y0 for the group of
// eight outputs at AX, which reads P[2*AX : 2*AX+17]. Y1 and Y2 hold the
// group's first sixteen inputs and Y3 the eight from 2*AX+2; Y4 the eight
// that end at 2*AX+16, the last tap, so no load passes it. Each VSHUFPS
// takes the evens (kx = 0), the odds (kx = 1) and the evens from +2
// (kx = 2) of every 128-bit half, which leaves outputs 0 1 4 5 | 2 3 6 7
// in the lanes of all three alike. Each VMAXPS has the tap as Intel's
// first source: the running max where they are equal or either is a
// NaN, which is `if v > m { m = v }`.
#define POOLROW(P) \
	VMOVUPS 0(P)(AX*8), Y1; \
	VMOVUPS 32(P)(AX*8), Y2; \
	VMOVUPS 8(P)(AX*8), Y3; \
	VMOVUPS 36(P)(AX*8), Y4; \
	VSHUFPS $0x88, Y2, Y1, Y5; \
	VMAXPS  Y0, Y5, Y0; \
	VSHUFPS $0xDD, Y2, Y1, Y5; \
	VMAXPS  Y0, Y5, Y0; \
	VSHUFPS $0xD8, Y4, Y3, Y5; \
	VMAXPS  Y0, Y5, Y0

// func maxPoolRowAVX2(o, r0, r1, r2 []float32)
//
// Output columns [0, len(o)) of a 3×3 stride-2 max-pool, column x the
// max of r0, r1 and r2[2x : 2x+3] in (ky, kx) order from negInf, eight
// columns a group. A last partial group is the overlapping group ending
// at len(o): a max is written the same whichever group computes it, so
// no mask and no tail. VPERMPD puts the lanes back in column order
// before the store. The caller has checked every bound, that len(o) >= 8
// and that every row holds 2*len(o)+1 elements.
TEXT ·maxPoolRowAVX2(SB), NOSPLIT, $0-96
	MOVQ o_base+0(FP), DI
	MOVQ o_len+8(FP), CX
	MOVQ r0_base+24(FP), SI
	MOVQ r1_base+48(FP), DX
	MOVQ r2_base+72(FP), R8
	VBROADCASTSS poolFloor<>(SB), Y15
	SUBQ $8, CX             // the last group's first column
	XORQ AX, AX

mpLoop:
	VMOVAPS Y15, Y0
	POOLROW(SI)
	POOLROW(DX)
	POOLROW(R8)
	VPERMPD $0xD8, Y0, Y0
	VMOVUPS Y0, (DI)(AX*4)
	CMPQ AX, CX
	JEQ  mpDone
	ADDQ $8, AX
	CMPQ AX, CX
	JLE  mpLoop
	MOVQ CX, AX
	JMP  mpLoop

mpDone:
	VZEROUPPER
	RET

// The AVX2 bodies of the activation quantizer (quant.go), one lane per
// element: maxAbs's reduction, and quantCode's rounding in its order.

// func maxAbsAVX2(src []float32) uint32
//
// maxAbs's reduction on eight lanes, for len(src) a multiple of eight:
// each lane clears the sign bit (VPAND), zeroes a pattern above +Inf's, a
// NaN (VPCMPGTD, a signed compare that is exact once the sign bit is
// clear, then VPANDN), and keeps the unsigned max (VPMAXUD); four
// registers at a time, then one, then a fold of the lanes. An unsigned
// max is exact in any order, so the result is maxAbs's bit pattern. The
// caller has checked every bound.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-28
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVL $0x7fffffff, AX
	MOVQ AX, X8
	VPBROADCASTD X8, Y8     // everything but the sign bit
	MOVL $0x7f800000, AX
	MOVQ AX, X9
	VPBROADCASTD X9, Y9     // posInfBits
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-32, DX           // the fours of groups' elements

ma32:
	CMPQ AX, DX
	JEQ  ma8
	VPAND    (SI)(AX*4), Y8, Y4
	VPAND    32(SI)(AX*4), Y8, Y5
	VPAND    64(SI)(AX*4), Y8, Y6
	VPAND    96(SI)(AX*4), Y8, Y7
	VPCMPGTD Y9, Y4, Y10
	VPCMPGTD Y9, Y5, Y11
	VPCMPGTD Y9, Y6, Y12
	VPCMPGTD Y9, Y7, Y13
	VPANDN   Y4, Y10, Y4
	VPANDN   Y5, Y11, Y5
	VPANDN   Y6, Y12, Y6
	VPANDN   Y7, Y13, Y7
	VPMAXUD  Y4, Y0, Y0
	VPMAXUD  Y5, Y1, Y1
	VPMAXUD  Y6, Y2, Y2
	VPMAXUD  Y7, Y3, Y3
	ADDQ $32, AX
	JMP  ma32

ma8:
	CMPQ AX, CX
	JEQ  maFold
	VPAND    (SI)(AX*4), Y8, Y4
	VPCMPGTD Y9, Y4, Y10
	VPANDN   Y4, Y10, Y4
	VPMAXUD  Y4, Y0, Y0
	ADDQ $8, AX
	JMP  ma8

maFold:
	VPMAXUD Y1, Y0, Y0
	VPMAXUD Y3, Y2, Y2
	VPMAXUD Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPMAXUD X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPMAXUD X1, X0, X0
	VZEROUPPER
	MOVQ X0, AX
	MOVL AX, ret+24(FP)
	RET

// QCODE turns the eight products v*inv in R into their codes, through T:
// the half takes r's sign bit (VANDPS, then VORPS onto 0.5 in Y13), r +
// half is a VADDPS rounded apart, VCVTTPS2DQ truncates it toward zero —
// 0x80000000 on a NaN or past int32, as amd64's CVTTSS2SL does for Go's
// int32(float32) — and VPMINSD and VPMAXSD clamp to [-127, 127] (Y12,
// Y11): quantCode's steps in its order.
#define QCODE(R, T) \
	VANDPS     Y14, R, T; \
	VORPS      Y13, T, T; \
	VADDPS     T, R, R; \
	VCVTTPS2DQ R, R; \
	VPMINSD    Y12, R, R; \
	VPMAXSD    Y11, R, R

// func quantizeRowAVX2(dst []int16, a, b []float32, inv float32)
//
// quantCode at inv of every element of a, and of b when b is not empty,
// into dst, for len(a) a multiple of eight: with b empty, dst[i] = a's
// code i, sixteen codes at a time (VPACKSSDW, then VPERMQ puts the two
// 128-bit halves' runs back in order), then eight; else, as pair rows,
// dst[2i] and dst[2i+1] = a's and b's codes i, eight pairs at a time,
// each int32 lane b's code shifted up 16 and blended over a's (VPSLLD,
// VPBLENDW) and the eight pairs written by one 32-byte store. Each
// product is one VMULPS, rounded apart (the operands' order cannot move
// a bit: a NaN product codes the same whatever its payload). The codes
// fit int16, so the pack never saturates. The caller has checked every
// bound.
TEXT ·quantizeRowAVX2(SB), NOSPLIT, $0-76
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	MOVQ b_len+56(FP), R8
	VBROADCASTSS inv+72(FP), Y15
	MOVL $0x80000000, AX
	MOVQ AX, X14
	VPBROADCASTD X14, Y14   // the sign bit
	MOVL $0x3f000000, AX
	MOVQ AX, X13
	VPBROADCASTD X13, Y13   // 0.5
	MOVL $127, AX
	MOVQ AX, X12
	VPBROADCASTD X12, Y12
	MOVL $-127, AX
	MOVQ AX, X11
	VPBROADCASTD X11, Y11
	XORQ AX, AX
	TESTQ R8, R8
	JNE   qrPairs
	MOVQ CX, R9
	ANDQ $-16, R9           // the pairs of groups' elements

qrFlat16:
	CMPQ AX, R9
	JEQ  qrFlat8
	VMULPS    (SI)(AX*4), Y15, Y0
	VMULPS    32(SI)(AX*4), Y15, Y1
	QCODE(Y0, Y2)
	QCODE(Y1, Y3)
	VPACKSSDW Y1, Y0, Y0    // codes 0-3 8-11 | 4-7 12-15
	VPERMQ    $0xD8, Y0, Y0
	VMOVDQU   Y0, (DI)(AX*2)
	ADDQ $16, AX
	JMP  qrFlat16

qrFlat8:
	CMPQ AX, CX
	JEQ  qrDone
	VMULPS       (SI)(AX*4), Y15, Y0
	QCODE(Y0, Y2)
	VEXTRACTI128 $1, Y0, X1
	VPACKSSDW    X1, X0, X0
	VMOVDQU      X0, (DI)(AX*2)
	JMP  qrDone

qrPairs:
	CMPQ AX, CX
	JEQ  qrDone
	VMULPS   (SI)(AX*4), Y15, Y0
	VMULPS   (DX)(AX*4), Y15, Y1
	QCODE(Y0, Y2)
	QCODE(Y1, Y3)
	VPSLLD   $16, Y1, Y1
	VPBLENDW $0xAA, Y1, Y0, Y0
	VMOVDQU  Y0, (DI)(AX*4)
	ADDQ $8, AX
	JMP  qrPairs

qrDone:
	VZEROUPPER
	RET
