//go:build !amd64

package tensor

// useAVX2 is false off amd64: pointwiseQuads runs its Go loop.
var useAVX2 = false

func pointwiseQuadsAVX2(o0, o1, x []float32, stride int, w0, w1 []float32) {
	panic("tensor: no AVX2 body off amd64")
}

func fmulChainsAVX2(steps int) float32 {
	panic("tensor: no AVX2 body off amd64")
}
