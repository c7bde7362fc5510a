package tensor

import "testing"

// Benchmarks pinning the epilogue fold: the folded depthwise kernel must
// not lose to compute-then-two-sweeps (`go test -bench DepthwiseEpilogue`).

func benchTensors(c, hw int) (in, dw *Tensor, bias []float32, epi Epilogue) {
	in = New(c, hw, hw)
	dw = New(c, 3, 3)
	for i := range in.Data {
		in.Data[i] = float32(i%1024)/512 - 1
	}
	for i := range dw.Data {
		dw.Data[i] = float32(i%64)/32 - 1
	}
	bias = make([]float32, c)
	epi = Epilogue{Scale: make([]float32, c), Shift: make([]float32, c), Act: ActReLU6}
	for i := range epi.Scale {
		epi.Scale[i] = 1 + float32(i%7)/16
		epi.Shift[i] = float32(i%5)/8 - 0.25
	}
	return in, dw, bias, epi
}

func BenchmarkDepthwiseEpilogueSweep(b *testing.B) {
	in, dw, bias, epi := benchTensors(64, 128)
	dst := New(64, 128, 128)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DepthwiseConv2DFusedInto(dst, in, dw, bias, spec, Epilogue{})
		epi.ApplyInto(dst)
	}
}

func BenchmarkDepthwiseEpilogueFolded(b *testing.B) {
	in, dw, bias, epi := benchTensors(64, 128)
	dst := New(64, 128, 128)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DepthwiseConv2DFusedInto(dst, in, dw, bias, spec, epi)
	}
}
