//go:build !amd64

package tensor

// useAVX2 is false off amd64: pointwiseQuads, the FP32 epilogue and the
// int8 requantize, depthwiseRow, the int8 dot products, the max-pool
// interior and the activation quantizer run their Go loops.
var useAVX2 = false

func pointwiseQuadsAVX2(o0, o1, x []float32, stride int, w0, w1 []float32) {
	panic("tensor: no AVX2 body off amd64")
}

func epilogueAVX2(seg []float32, b, scale, shift, hi float32, mode int) {
	panic("tensor: no AVX2 body off amd64")
}

func depthwiseAVX2(o, plane, t []float32, b float32, iy0, wd, wout, stride, lo, hi int) {
	panic("tensor: no AVX2 body off amd64")
}

func maxPoolRowAVX2(o, r0, r1, r2 []float32) {
	panic("tensor: no AVX2 body off amd64")
}

func fmulChainsAVX2(steps int) float32 {
	panic("tensor: no AVX2 body off amd64")
}

func qpointwiseQuadsAVX2(o0, o1 []int32, x []int16, stride int, w0, w1 []int8) {
	panic("tensor: no AVX2 body off amd64")
}

func qmacChainsAVX2(steps int) int32 {
	panic("tensor: no AVX2 body off amd64")
}

func maxAbsAVX2(src []float32) uint32 {
	panic("tensor: no AVX2 body off amd64")
}

func quantizeRowAVX2(dst []int16, a, b []float32, inv float32) {
	panic("tensor: no AVX2 body off amd64")
}
