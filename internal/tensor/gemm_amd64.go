package tensor

// useAVX2 sends pointwiseQuads, the FP32 epilogue and the int8
// requantize, the 3x3 depthwise kernel, the int8 dot products and
// their pair-row interleave, the 3x3 stride-2 max-pool interior, and the
// activation quantizer's max-abs and rounding to their AVX2 bodies
// (gemm_amd64.s), read once from CPUID at package init.
// Tests clear it to run the Go kernel, the reference and the path on
// every other CPU.
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

// depthwiseAVX2 is depthwiseRows' 3x3 kernel on eight output columns per
// YMM register, bit for bit, for the output rows in o of one channel,
// stride 1 or 2, edges and padded rows included: every output is
// depthwisePixel's chain over the plane, wd columns wide, against taps
// t[0:9] and bias b. The first row's window starts at plane row iy0;
// output columns [lo, hi) are the interior depthwiseInterior gives. It
// checks no bound: depthwiseRows does.
//
//go:noescape
func depthwiseAVX2(o, plane, t []float32, b float32, iy0, wd, wout, stride, lo, hi int)

// maxPoolRowAVX2 is maxPoolPlanes' 3x3 stride-2 interior on eight output
// columns per YMM register, bit for bit: o[x] is the max of r0, r1 and
// r2[2x : 2x+3] in maxPoolWindow's order. It checks no bound:
// maxPoolPlanes does.
//
//go:noescape
func maxPoolRowAVX2(o, r0, r1, r2 []float32)

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

// maxAbsAVX2 is maxAbs's reduction on eight lanes, for len(src) a multiple
// of eight: the largest of the patterns with the sign bit cleared and the
// NaNs zeroed, exact in any order. It checks no bound: maxAbs does.
//
//go:noescape
func maxAbsAVX2(src []float32) uint32

// quantizeRowAVX2 is quantCode at inv on eight lanes, bit for bit, for
// len(a) a multiple of eight: with b empty dst[i] = code(a[i]), else the
// pair rows dst[2i] = code(a[i]) and dst[2i+1] = code(b[i]). It checks no
// bound: quantizeRow and quantizePairRow do.
//
//go:noescape
func quantizeRowAVX2(dst []int16, a, b []float32, inv float32)

// qmacChainsAVX2 is QMACVectorChains' loop: one call of steps steps does
// QMACVectorWide*steps multiply-accumulates.
func qmacChainsAVX2(steps int) int32
