package tensor

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"edgebench/internal/stats"
)

// Micro-benchmarks of the functional compute engine, including the
// direct-vs-GEMM convolution ablation DESIGN.md calls out.

func benchInput(c, h, w int) *Tensor {
	return New(c, h, w).Randomize(stats.NewRNG(1), 1)
}

func BenchmarkConv2DGEMM(b *testing.B) {
	in := benchInput(32, 28, 28)
	w := New(64, 32, 3, 3).Randomize(stats.NewRNG(3), 1)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	dst := New(64, 28, 28)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DInto(dst, in, w, nil, spec, Epilogue{})
	}
}

func BenchmarkDepthwiseConv2D(b *testing.B) {
	in := benchInput(64, 28, 28)
	w := New(64, 3, 3).Randomize(stats.NewRNG(4), 1)
	spec := Conv2DSpec{Stride: 1, Pad: 1}
	dst := New(64, 28, 28)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DepthwiseConv2DFusedInto(dst, in, w, nil, spec, Epilogue{})
	}
}

func BenchmarkQuantizeRoundTrip(b *testing.B) {
	in := New(1<<16).Randomize(stats.NewRNG(5), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizeSymmetric(in).Dequantize()
	}
}

func BenchmarkFP16RoundTrip(b *testing.B) {
	in := New(1<<16).Randomize(stats.NewRNG(6), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RoundTripFP16(in)
	}
}

// The benchmarks below sit at MobileNet-v2's hottest shapes (the layers
// a CPU profile of the served model ranks first), so a kernel change can
// be judged where the model's time goes.

// BenchmarkDepthwise3x3 runs every depthwise geometry of MobileNet-v2 —
// its 17 steps take these ten shapes, at stride 1 and 2 — with the
// batch-norm affine and ReLU6 epilogue the model folds into them.
func BenchmarkDepthwise3x3(b *testing.B) {
	for _, tc := range []struct {
		name    string
		c, h, w int
		stride  int
	}{
		{"32x112x112-s1", 32, 112, 112, 1},
		{"96x112x112-s2", 96, 112, 112, 2},
		{"144x56x56-s1", 144, 56, 56, 1},
		{"144x56x56-s2", 144, 56, 56, 2},
		{"192x28x28-s1", 192, 28, 28, 1},
		{"192x28x28-s2", 192, 28, 28, 2},
		{"384x14x14-s1", 384, 14, 14, 1},
		{"576x14x14-s1", 576, 14, 14, 1},
		{"576x14x14-s2", 576, 14, 14, 2},
		{"960x7x7-s1", 960, 7, 7, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			in := benchInput(tc.c, tc.h, tc.w)
			w := New(tc.c, 3, 3).Randomize(stats.NewRNG(4), 1)
			spec := Conv2DSpec{Stride: tc.stride, Pad: 1}
			hout, wout := spec.OutDims(tc.h, tc.w, 3, 3)
			dst := New(tc.c, hout, wout)
			_, _, _, _, _, epi := bnEpilogue(tc.c, 0)
			epi.Act = ActReLU6
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DepthwiseConv2DFusedInto(dst, in, w, nil, spec, epi)
			}
			b.ReportMetric(float64(tc.c*hout*wout*9)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkConv2DKxK is the whole staged FP32 convolution, Conv2DInto
// with an absorbed batch-norm and ReLU, at the two K x K convolutions of
// the benchmark's FP32 models: CifarNet's conv2 (K = 1600, so a K-block
// starts inside an (ic, ky) run of five taps, on a 225-pixel plane cut by
// channel pairs) and MobileNet-v2's stem (K = 27, strided, padded on two
// sides).
func BenchmarkConv2DKxK(b *testing.B) {
	for _, tc := range []struct {
		name                 string
		cin, hw              int
		cout, k, stride, pad int
	}{
		{"cifar-conv2-64x15x15-5x5p2-64", 64, 15, 64, 5, 1, 2},
		{"mbv2-stem-3x224x224-3x3s2p1-32", 3, 224, 32, 3, 2, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			in := benchInput(tc.cin, tc.hw, tc.hw)
			w := New(tc.cout, tc.cin, tc.k, tc.k).Randomize(stats.NewRNG(3), 1)
			epi := Epilogue{Scale: New(tc.cout).Fill(1.5).Data, Shift: New(tc.cout).Fill(0.25).Data, Act: ActReLU}
			spec := Conv2DSpec{Stride: tc.stride, Pad: tc.pad}
			hout, wout := spec.OutDims(tc.hw, tc.hw, tc.k, tc.k)
			dst := New(tc.cout, hout, wout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Conv2DInto(dst, in, w, nil, spec, epi)
			}
			b.ReportMetric(float64(tc.cin*tc.k*tc.k*tc.cout*hout*wout)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkPointwiseConv is the whole FP32 pointwise convolution as a
// compiled program runs it — channel-major on its input and weights in
// place, with the absorbed batch-norm and, where the model has one,
// ReLU6 — at six MobileNet-v2 layers: the largest plane's expand, the
// slowest classes of the per-layer table (a K = 32 projection at 112x112,
// K = 144 at 56x56 and its expand), a mid-size linear projection, and a
// 7x7 plane smaller than a band, cut by channel pairs.
func BenchmarkPointwiseConv(b *testing.B) {
	for _, tc := range []struct {
		name          string
		cin, hw, cout int
		act           Act
	}{
		{"16x112x112-96-relu6", 16, 112, 96, ActReLU6},
		{"32x112x112-16", 32, 112, 16, ActNone},
		{"144x56x56-24", 144, 56, 24, ActNone},
		{"24x56x56-144-relu6", 24, 56, 144, ActReLU6},
		{"192x28x28-32", 192, 28, 32, ActNone},
		{"160x7x7-960-relu6", 160, 7, 960, ActReLU6},
	} {
		b.Run(tc.name, func(b *testing.B) {
			in := benchInput(tc.cin, tc.hw, tc.hw)
			w := New(tc.cout, tc.cin, 1, 1).Randomize(stats.NewRNG(3), 1)
			epi := Epilogue{Scale: New(tc.cout).Fill(1.5).Data, Shift: New(tc.cout).Fill(0.25).Data, Act: tc.act}
			dst := New(tc.cout, tc.hw, tc.hw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Conv2DInto(dst, in, w, nil, Conv2DSpec{Stride: 1}, epi)
			}
			b.ReportMetric(float64(tc.cin*tc.cout*tc.hw*tc.hw)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkForkJoin is what one parallelFor costs when the work is
// nothing: cut eight chunks, enlist the idle workers, drain the cursor,
// wait. The sharding thresholds are set against this number.
func BenchmarkForkJoin(b *testing.B) {
	fn := func(lo, hi int) {}
	for i := 0; i < b.N; i++ {
		parallelFor(8, 1, fn)
	}
}

// BenchmarkForkJoinGap is the hand-off between two kernels of one
// inference: pairs of parallelFor calls, eight chunks of 20 µs of real
// arithmetic each, separated by 5, 50 and 200 µs of serial caller work.
// late-µs/call is enlist → helper start averaged over the calls a helper
// took; hot/call and retracted/call are the shares of calls whose offer a
// spinning worker took or nobody did.
func BenchmarkForkJoinGap(b *testing.B) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	chunk := func(lo, hi int) { busyFor(time.Duration(hi-lo) * 20 * time.Microsecond) }
	for _, gap := range []time.Duration{5 * time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond} {
		b.Run(fmt.Sprintf("gap=%v", gap), func(b *testing.B) {
			runs := poolParallelRuns.Load()
			hot, retracted, wait := poolHotTakes.Load(), poolRetractions.Load(), poolStartWaitNs.Load()
			for i := 0; i < b.N; i++ {
				parallelFor(8, 1, chunk)
				busyFor(gap)
				parallelFor(8, 1, chunk)
				busyFor(gap)
			}
			calls := float64(poolParallelRuns.Load() - runs)
			taken := calls - float64(poolRetractions.Load()-retracted)
			b.ReportMetric(float64(poolStartWaitNs.Load()-wait)/1e3/max(taken, 1), "late-µs/call")
			b.ReportMetric(float64(poolHotTakes.Load()-hot)/max(calls, 1), "hot/call")
			b.ReportMetric(float64(poolRetractions.Load()-retracted)/max(calls, 1), "retracted/call")
		})
	}
}

// BenchmarkClampReLU6 is the affine + ReLU6 epilogue over activations of
// random sign, a third of them above 6 — the input on which a
// compare-and-branch clamp mispredicts most.
func BenchmarkClampReLU6(b *testing.B) {
	seg := New(1 << 14)
	src := New(1<<14).Randomize(stats.NewRNG(9), 12)
	epi := Epilogue{Scale: []float32{1.5}, Shift: []float32{0.25}, Act: ActReLU6}
	b.SetBytes(int64(4 * len(seg.Data)))
	for i := 0; i < b.N; i++ {
		copy(seg.Data, src.Data)
		applyEpilogueSpan(seg.Data, nil, 0, epi)
	}
}

// The benchmarks below sit at SqueezeNet v1.1's hottest int8-path
// shapes: the stem, the widest 3x3 expand, the classifier's 1x1, the
// first fire module's squeeze and 1x1 expand (the pointwise convs
// BENCH_layers.json ranks furthest below the int8 roof), the last 3x3
// expand (13-pixel rows under pad 1, a plane under a band per chunk, so
// cut by channel pairs), the first max-pool,
// and the activation quantizer on the stem's image and on a ReLU'd
// activation.

func BenchmarkConv2DQPrepacked(b *testing.B) {
	for _, tc := range []struct {
		name                 string
		cin, h, w            int
		cout, k, stride, pad int
	}{
		{"conv1-3x224x224-3x3s2-64", 3, 224, 224, 64, 3, 2, 0},
		{"fire3e3-16x55x55-3x3p1-64", 16, 55, 55, 64, 3, 1, 1},
		{"conv10-512x13x13-1x1-1000", 512, 13, 13, 1000, 1, 1, 0},
		{"fire3sq-128x55x55-1x1-16", 128, 55, 55, 16, 1, 1, 0},
		{"fire2e1-16x55x55-1x1-64", 16, 55, 55, 64, 1, 1, 0},
		{"fire9e3-64x13x13-3x3p1-256", 64, 13, 13, 256, 3, 1, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			in := benchInput(tc.cin, tc.h, tc.w)
			qw := QuantizePerChannel(New(tc.cout, tc.cin, tc.k, tc.k).Randomize(stats.NewRNG(3), 1))
			spec := Conv2DSpec{Stride: tc.stride, Pad: tc.pad}
			hout, wout := spec.OutDims(tc.h, tc.w, tc.k, tc.k)
			dst := New(tc.cout, hout, wout)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Conv2DQInto(dst, in, qw, nil, spec, ActReLU, 0)
			}
			b.ReportMetric(float64(tc.cin*tc.k*tc.k*tc.cout*hout*wout)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkMaxPool3x3s2 runs the four 3x3 stride-2 max-pools of the
// benchmark's models — SqueezeNet's pool1, pool3 and pool5 and CifarNet's
// pool1 — on random data through a ReLU, the input they really get:
// about half the taps are 0, so ties are everywhere. MB/s counts the
// bytes read and written.
func BenchmarkMaxPool3x3s2(b *testing.B) {
	for _, sh := range []struct {
		name  string
		c, hw int
	}{{"squeeze_pool1", 64, 111}, {"squeeze_pool3", 128, 55}, {"squeeze_pool5", 256, 27}, {"cifar_pool1", 64, 32}} {
		in := benchInput(sh.c, sh.hw, sh.hw)
		applyActInPlace(in.Data, ActReLU, 0)
		spec := PoolSpec{Kernel: 3, Stride: 2}
		dst := New(sh.c, spec.OutDim(sh.hw), spec.OutDim(sh.hw))
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(4 * (len(in.Data) + len(dst.Data))))
			for i := 0; i < b.N; i++ {
				MaxPool2DInto(dst, in, spec)
			}
		})
	}
}

// BenchmarkDenseFP32 runs the FP32 dense layer on the two shapes the
// benchmark's models have: CifarNet's fc3 (384x1600, below
// parallelThresholdMACs, so one core) and MobileNet-v2's classifier
// (1000x1280, above it).
func BenchmarkDenseFP32(b *testing.B) {
	for _, sh := range []struct{ out, in int }{{384, 1600}, {1000, 1280}} {
		b.Run(fmt.Sprintf("%dx%d", sh.out, sh.in), func(b *testing.B) {
			w := New(sh.out, sh.in).Randomize(stats.NewRNG(5), 1)
			x := benchInput(1, 1, sh.in).Data
			bias, dst, epi := make([]float32, sh.out), New(sh.out), Epilogue{Act: ActReLU}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				DenseInto(dst.Data, w, bias, x)
				epi.ApplyInto(dst)
			}
			b.ReportMetric(float64(sh.out*sh.in)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkQuantizeDynamic is the activation quantizer as the int8 convs
// run it — the scale of maxAbs, then quantizeRound into a code plane — on
// SqueezeNet's quantizer inputs: conv1's image of either sign (flat rows),
// fire3_sq's ReLU'd input (pair rows) and fire4_e3's (flat rows), all on
// the calling core. MB/s counts the floats read.
func BenchmarkQuantizeDynamic(b *testing.B) {
	for _, tc := range []struct {
		name        string
		c, h, w     int
		pairs, relu bool
	}{
		{"flat-3x224x224", 3, 224, 224, false, false},
		{"pairs-128x55x55", 128, 55, 55, true, true},
		{"flat-32x27x27", 32, 27, 27, false, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			in, plane := benchInput(tc.c, tc.h, tc.w), tc.h*tc.w
			if tc.relu {
				applyActInPlace(in.Data, ActReLU, 0)
			}
			codes := make([]int16, (tc.c+gemmMR-1)&^(gemmMR-1)*plane)
			b.ReportAllocs()
			b.SetBytes(int64(4 * len(in.Data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				quantizeRound(codes, in.Data, plane, tc.pairs, 1/symmetricScale(maxAbs(in.Data)))
			}
		})
	}
}
