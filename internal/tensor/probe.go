package tensor

// The chain probes a per-layer table reads kernels against
// (BenchmarkFMULPeak and BenchmarkIMULPeak time the same loops). Each
// runs more independent chains than the multiply and add ports keep in
// flight, so it retires one operation per port per cycle: the scalar
// ceiling of a kernel whose inner loop is a chain of that operation;
// FMULVectorChains is the eight-lane ceiling of the FP32 convolutions'
// vector body, QMACVectorChains that of the int8 microkernel's.

// probeSeed is zero, but the compiler cannot know that, so no operand of
// the probes folds into a constant or a multiply into shifts.
var probeSeed int64

// FMULChainsWide is the number of chains FMULChains runs: one call of
// steps steps does FMULChainsWide*steps multiply-adds.
const FMULChainsWide = 12

// FMULChains runs twelve independent float32 chains for steps steps,
// each step a multiply and then an add rounded apart as the FP32 kernels'
// are (fusing them would move their bits; the explicit float32
// conversions keep every architecture from doing so). The result keeps
// the chains live.
func FMULChains(steps int) float32 {
	m, c := float32(probeSeed)+0.999, float32(probeSeed)+0.001
	x0, x1, x2, x3, x4, x5 := c, c+1, c+2, c+3, c+4, c+5
	y0, y1, y2, y3, y4, y5 := c+6, c+7, c+8, c+9, c+10, c+11
	for s := 0; s < steps; s++ {
		x0, x1, x2 = float32(x0*m)+c, float32(x1*m)+c, float32(x2*m)+c
		x3, x4, x5 = float32(x3*m)+c, float32(x4*m)+c, float32(x5*m)+c
		y0, y1, y2 = float32(y0*m)+c, float32(y1*m)+c, float32(y2*m)+c
		y3, y4, y5 = float32(y3*m)+c, float32(y4*m)+c, float32(y5*m)+c
	}
	return x0 + x1 + x2 + x3 + x4 + x5 + y0 + y1 + y2 + y3 + y4 + y5
}

// VectorISA names the vector instruction set the kernels with a vector
// body — every FP32 convolution's microkernel, the FP32 epilogue and the
// int8 requantize, the 3x3 depthwise kernel, the int8 dot products, the
// 3x3 stride-2 max-pool interior, and the activation quantizer's max-abs
// and rounding — run on here: "avx2", or "" where they run the Go loops.
func VectorISA() string {
	if useAVX2 {
		return "avx2"
	}
	return ""
}

// DepthwiseVector reports whether a depthwise convolution of an [C, h, wd]
// input with kh x kw taps runs on the vector body (depthwiseAVX2): a
// layer the 3x3 kernel takes, at stride 1 or 2, on an AVX2 host.
func DepthwiseVector(h, wd, kh, kw int, spec Conv2DSpec) bool {
	spec = spec.check()
	return useAVX2 && depthwise3x3Fits(h, wd, kh, kw, spec.Stride, spec.PadH, spec.PadW)
}

// MaxPoolVector reports whether max pooling an [C, h, w] input runs its
// interior rows on the vector body (maxPoolRowAVX2): a 3x3 stride-2 pool
// with an interior row of at least eight windows, on an AVX2 host.
func MaxPoolVector(h, w int, spec PoolSpec) bool {
	spec = spec.check()
	ylo, yhi := interiorSpan(h, spec.OutDim(h), spec.Kernel, spec.Stride, spec.Pad)
	xlo, xhi := interiorSpan(w, spec.OutDim(w), spec.Kernel, spec.Stride, spec.Pad)
	return useAVX2 && spec.Kernel == 3 && spec.Stride == 2 && ylo < yhi && xhi-xlo >= 8
}

// FMULVectorWide is the number of multiply-adds one step of
// FMULVectorChains does: FMULChainsWide chains of eight lanes.
const FMULVectorWide = 8 * FMULChainsWide

// FMULVectorChains runs FMULChains' loop on eight-lane registers (a
// VMULPS and then a VADDPS a step, as the vector body rounds them) for
// steps steps, where VectorISA is not "", and returns 0 at once where it
// is. The result keeps the chains live.
func FMULVectorChains(steps int) float32 {
	if !useAVX2 {
		return 0
	}
	return fmulChainsAVX2(steps)
}

// IMULChainsWide is the number of chains IMULChains runs: one call of
// steps steps does IMULChainsWide*steps 64-bit multiplies.
const IMULChainsWide = 8

// IMULChains runs eight independent 64-bit multiply-add chains for steps
// steps: the integer multiplies the int8 kernel's Go loop issues, one a
// MAC. The result keeps the chains live.
func IMULChains(steps int) int64 {
	m, c := probeSeed+0x5851f42d4c957f2d, probeSeed+0x14057b7ef767814f
	x0, x1, x2, x3, x4, x5, x6, x7 := c, c+1, c+2, c+3, c+4, c+5, c+6, c+7
	for s := 0; s < steps; s++ {
		x0, x1, x2, x3 = x0*m+c, x1*m+c, x2*m+c, x3*m+c
		x4, x5, x6, x7 = x4*m+c, x5*m+c, x6*m+c, x7*m+c
	}
	return x0 ^ x1 ^ x2 ^ x3 ^ x4 ^ x5 ^ x6 ^ x7
}

// QMACVectorWide is the number of int8 multiply-accumulates one step of
// QMACVectorChains does: twelve chains of a VPMADDWD, sixteen int16
// products summed in pairs into eight int32 lanes.
const QMACVectorWide = 16 * 12

// QMACVectorChains runs twelve independent eight-lane chains of the int8
// vector body's multiply-accumulate, x = VPMADDWD(x, m) + c, for steps
// steps where VectorISA is not "", and returns 0 at once where it is.
// The result keeps the chains live.
func QMACVectorChains(steps int) int32 {
	if !useAVX2 {
		return 0
	}
	return qmacChainsAVX2(steps)
}
