package tensor

// useAVX2 sends pointwiseQuads, the FP32 epilogue and depthwiseRow's
// stride-1 interior to their AVX2 bodies (gemm_amd64.s), read once from
// CPUID at package init. Tests clear it to run the Go kernel,
// the reference and the path on every other CPU.
var useAVX2 = cpuAVX2()

// cpuAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers.
func cpuAVX2() bool

// pointwiseQuadsAVX2 is pointwiseQuads on eight pixels per YMM register,
// bit for bit. It checks no bound: pointwiseQuads does.
//
//go:noescape
func pointwiseQuadsAVX2(o0, o1, x []float32, stride int, w0, w1 []float32)

// epilogueAVX2 is applyEpilogueSpan's bias, affine and clamp on eight
// elements per YMM register, bit for bit: mode's epiBias adds b, its
// epiAffine computes v*scale + shift, its epiClamp clamps to [0, hi].
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
