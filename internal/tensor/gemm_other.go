//go:build !amd64

package tensor

// useAVX2 is false off amd64: pointwiseQuads, the FP32 epilogue,
// depthwiseRow, the int8 microkernel and the int8 requantize store run
// their Go loops.
var useAVX2 = false

func pointwiseQuadsAVX2(o0, o1, x []float32, stride int, w0, w1 []float32) {
	panic("tensor: no AVX2 body off amd64")
}

func epilogueAVX2(seg []float32, b, scale, shift, hi float32, mode int) {
	panic("tensor: no AVX2 body off amd64")
}

func depthwiseRowAVX2(o, r0, r1, r2, t []float32, b float32) {
	panic("tensor: no AVX2 body off amd64")
}

func fmulChainsAVX2(steps int) float32 {
	panic("tensor: no AVX2 body off amd64")
}

func qgemmUnitAVX2(dst []int32, n, rows int, codes []int16, panel []byte, kb4, cols int) {
	panic("tensor: no AVX2 body off amd64")
}

func qmacChainsAVX2(steps int) int32 {
	panic("tensor: no AVX2 body off amd64")
}

func requantizeAVX2(out []float32, ncols int, acc []int32, cout, npix int, scale, bias *[8]float32, hi float32, clamp bool) {
	panic("tensor: no AVX2 body off amd64")
}
