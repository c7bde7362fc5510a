package tensor

// useAVX2 sends pointwiseQuads, the FP32 epilogue and the int8
// requantize, depthwiseRow's stride-1 interior and the int8 microkernel
// to their AVX2 bodies (gemm_amd64.s), read once
// from CPUID at package init. Tests clear it to run the Go kernel, the
// reference and the path on every other CPU.
var useAVX2 = cpuAVX2()

// cpuAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers.
func cpuAVX2() bool

// pointwiseQuadsAVX2 is pointwiseQuads on eight pixels per YMM register,
// bit for bit. It checks no bound: pointwiseQuads does.
//
//go:noescape
func pointwiseQuadsAVX2(o0, o1, x []float32, stride int, w0, w1 []float32)

// epilogueAVX2 is applyEpilogueSpan's bias, affine and clamp, and
// requantizeRow's conversion, affine and clamp, on eight elements per YMM
// register, bit for bit: mode's epiBias adds b, its epiAffine computes
// v*scale + shift, its epiClamp clamps to [0, hi]; with epiConvert the
// element's bits are an int32 accumulator, converted to float32 and then
// always put through the affine (and the clamp if set), never the bias.
//
//go:noescape
func epilogueAVX2(seg []float32, b, scale, shift, hi float32, mode int)

// depthwiseRowAVX2 is depthwiseRow's stride-1 interior on eight output
// columns per YMM register, bit for bit: o[x] = b + r0[x]*t[0] + ... +
// r2[x+2]*t[8], or through r1[x+2]*t[5] when r2 is empty. It checks no
// bound: depthwiseRow does.
//
//go:noescape
func depthwiseRowAVX2(o, r0, r1, r2, t []float32, b float32)

// fmulChainsAVX2 is FMULChains' loop on eight-lane registers: one call of
// steps steps does 8*FMULChainsWide*steps multiply-adds.
func fmulChainsAVX2(steps int) float32

// qpointwiseQuadsAVX2 is qpointwiseQuads on eight pixels per YMM
// register, bit for bit. It widens w0 and w1 to int16 on a 512-byte
// frame, which holds gemmKC codes of each, and checks no bound:
// qpointwiseQuads does.
//
//go:noescape
func qpointwiseQuadsAVX2(o0, o1 []int32, x []int16, stride int, w0, w1 []int8)

// interleaveAVX2 is interleave on sixteen pixels at a time, for a
// multiple of sixteen. It checks no bound: interleave does.
//
//go:noescape
func interleaveAVX2(dst, a, b []int16)

// The vector body's frame holds two widened K-blocks of 128 codes: the
// compiler holds gemmKC to 128.
const (
	_ uint = gemmKC - 128
	_ uint = 128 - gemmKC
)

// qmacChainsAVX2 is QMACVectorChains' loop: one call of steps steps does
// QMACVectorWide*steps multiply-accumulates.
func qmacChainsAVX2(steps int) int32
