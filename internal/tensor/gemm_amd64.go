package tensor

// useAVX2 sends pointwiseQuads, the FP32 epilogue, depthwiseRow's
// stride-1 interior, the int8 microkernel's four-column groups and the
// int8 requantize store to their AVX2 bodies (gemm_amd64.s), read once
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

// qgemmUnitAVX2 is qgemmPanelRows' dot products for one unit of pixels
// on eight columns per YMM register, bit for bit: dst[p*n+c] += the
// K-block of codes[p*qgemmKC:] against panel column c, for p < rows and
// the first cols columns, cols a multiple of four. It checks no bound:
// qgemmPanelRowsVector does.
//
//go:noescape
func qgemmUnitAVX2(dst []int32, n, rows int, codes []int16, panel []byte, kb4, cols int)

// The vector body reads pixel p's codes at byte 128*p, qgemmKC int16s
// apart: the compiler holds qgemmKC to 64.
const (
	_ uint = qgemmKC - 64
	_ uint = 64 - qgemmKC
)

// qmacChainsAVX2 is QMACVectorChains' loop: one call of steps steps does
// QMACVectorWide*steps multiply-accumulates.
func qmacChainsAVX2(steps int) int32

// requantizeAVX2 is requantizeStrided for eight channels at once, bit for
// bit, an 8x8 block of pixel-major accumulators transposed in registers:
// out[k*ncols+i] = act(float32(acc[i*cout+k])*scale[k] + bias[k]) for k <
// 8 and i < npix, npix a multiple of eight, act the clamp to [0, hi] when
// clamp is set and the identity otherwise. It checks no bound: storeInt8
// does.
//
//go:noescape
func requantizeAVX2(out []float32, ncols int, acc []int32, cout, npix int, scale, bias *[8]float32, hi float32, clamp bool)
