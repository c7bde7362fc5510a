package tensor

// useAVX2 sends pointwiseQuads to its AVX2 body (gemm_amd64.s), read
// once from CPUID at package init. Tests clear it to run the Go kernel,
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

// fmulChainsAVX2 is FMULChains' loop on eight-lane registers: one call of
// steps steps does 8*FMULChainsWide*steps multiply-adds.
func fmulChainsAVX2(steps int) float32
