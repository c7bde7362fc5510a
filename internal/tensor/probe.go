package tensor

// The chain probes a per-layer table reads kernels against
// (BenchmarkFMULPeak and BenchmarkIMULPeak time the same loops). Each
// runs more independent chains than the multiply and add ports keep in
// flight, so it retires one operation per port per cycle: the scalar
// ceiling of a kernel whose inner loop is a chain of that operation.

// probeSeed is zero, but the compiler cannot know that, so no operand of
// the probes folds into a constant or a multiply into shifts.
var probeSeed int64

// FMULChainsWide is the number of chains FMULChains runs: one call of
// steps steps does FMULChainsWide*steps multiply-adds.
const FMULChainsWide = 12

// FMULChains runs twelve independent float32 chains for steps steps,
// each step a multiply and then an add rounded apart as the FP32 kernels'
// are (fusing them would move their bits). The result keeps the chains
// live.
func FMULChains(steps int) float32 {
	m, c := float32(probeSeed)+0.999, float32(probeSeed)+0.001
	x0, x1, x2, x3, x4, x5 := c, c+1, c+2, c+3, c+4, c+5
	y0, y1, y2, y3, y4, y5 := c+6, c+7, c+8, c+9, c+10, c+11
	for s := 0; s < steps; s++ {
		x0, x1, x2, x3, x4, x5 = x0*m+c, x1*m+c, x2*m+c, x3*m+c, x4*m+c, x5*m+c
		y0, y1, y2, y3, y4, y5 = y0*m+c, y1*m+c, y2*m+c, y3*m+c, y4*m+c, y5*m+c
	}
	return x0 + x1 + x2 + x3 + x4 + x5 + y0 + y1 + y2 + y3 + y4 + y5
}

// IMULChainsWide is the number of chains IMULChains runs: one call of
// steps steps does IMULChainsWide*steps 64-bit multiplies.
const IMULChainsWide = 8

// IMULChains runs eight independent 64-bit multiply-add chains for steps
// steps: the multiplies the int8 kernel's SWAR lanes ride on. The result
// keeps the chains live.
func IMULChains(steps int) int64 {
	m, c := probeSeed+0x5851f42d4c957f2d, probeSeed+0x14057b7ef767814f
	x0, x1, x2, x3, x4, x5, x6, x7 := c, c+1, c+2, c+3, c+4, c+5, c+6, c+7
	for s := 0; s < steps; s++ {
		x0, x1, x2, x3 = x0*m+c, x1*m+c, x2*m+c, x3*m+c
		x4, x5, x6, x7 = x4*m+c, x5*m+c, x6*m+c, x7*m+c
	}
	return x0 ^ x1 ^ x2 ^ x3 ^ x4 ^ x5 ^ x6 ^ x7
}
