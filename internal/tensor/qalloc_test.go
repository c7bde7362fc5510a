//go:build !race

package tensor_test

import (
	"math/rand"
	"testing"

	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

// TestQKernelsAllocateNothing pins the int8 conv's steady state at zero
// allocations a call, pointwise and 3x3, each with an input long enough
// to shard the quantizer. (The int8 dense layer is the graph's view of a
// pointwise conv; TestQuantizedDenseStepAllocatesNothing covers it.)
// Excluded under -race, whose runtime drops pooled scratch.
func TestQKernelsAllocateNothing(t *testing.T) {
	rng := stats.NewRNG(17)
	in := tensor.New(16, 55, 55).Randomize(rng, 1)
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"pointwise", qconv(rng, in, 1, 0)},
		{"3x3", qconv(rng, in, 3, 1)},
	} {
		tc.run() // fill the pools
		if got := testing.AllocsPerRun(20, tc.run); got != 0 {
			t.Errorf("%s: %.1f allocs a call, want 0", tc.name, got)
		}
	}
}

// qconv returns a call of the int8 conv of in with a k x k filter bank of
// 32 outputs.
func qconv(rng *rand.Rand, in *tensor.Tensor, k, pad int) func() {
	qw := tensor.ConvCodes(tensor.QuantizePerChannel(tensor.New(32, in.Shape[0], k, k).Randomize(rng, 1)))
	spec := tensor.Conv2DSpec{Stride: 1, Pad: pad}
	dst := tensor.New(32, in.Shape[1], in.Shape[2])
	return func() { tensor.Conv2DQInto(dst, in, qw, nil, spec, tensor.ActReLU, 0) }
}

// TestPointwiseConvAllocatesNothing pins the FP32 conv's steady state at
// zero allocations a call, on each way it runs: a pointwise 56x56 plane
// cut by pixels at two cores, a pointwise 7x7 plane cut by channel pairs,
// one below the MAC bar on the caller alone, each with an odd Cout and a
// K off the quad, and a staged 3x3 on a 15x15 plane cut by channel pairs.
func TestPointwiseConvAllocatesNothing(t *testing.T) {
	rng := stats.NewRNG(19)
	for _, tc := range []struct {
		name               string
		k, cout, hw, kk, p int
	}{
		{"pixels", 30, 33, 56, 1, 0},
		{"pairs", 161, 195, 7, 1, 0},
		{"serial", 7, 9, 14, 1, 0},
		{"3x3-pairs", 33, 63, 15, 3, 1},
	} {
		w := tensor.New(tc.cout, tc.k, tc.kk, tc.kk).Randomize(rng, 1)
		in, dst := tensor.New(tc.k, tc.hw, tc.hw).Randomize(rng, 1), tensor.New(tc.cout, tc.hw, tc.hw)
		bias := tensor.New(tc.cout).Randomize(rng, 1).Data
		spec := tensor.Conv2DSpec{Stride: 1, Pad: tc.p}
		run := func() { tensor.Conv2DInto(dst, in, w, bias, spec, tensor.Epilogue{Act: tensor.ActReLU6}) }
		run() // fill the pools
		if got := testing.AllocsPerRun(20, run); got != 0 {
			t.Errorf("%s: %.1f allocs a call, want 0", tc.name, got)
		}
	}
}
