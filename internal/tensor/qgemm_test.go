package tensor

import (
	"math/rand"
	"testing"
)

func qnaive(dst []int32, a, b []int8, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s int32
			for l := 0; l < k; l++ {
				s += int32(a[i*k+l]) * int32(b[l*n+j])
			}
			dst[i*n+j] = s
		}
	}
}

// packB lays a row-major [k, n] B matrix, the operand the GEMM tests and
// benchmarks multiply by, out as the int8 convolution reads its weights:
// the [n, k] rows of its transpose, as a 1x1 conv's [Cout, Cin] codes
// lie. Nothing is packed beyond that transpose.
func packB(b []int8, k, n int) []int8 {
	if len(b) != k*n {
		panic("packB: data length does not match k x n")
	}
	bt := make([]int8, len(b))
	for r := range k {
		for c := range n {
			bt[c*k+r] = b[r*n+c]
		}
	}
	return bt
}

// matrixJob views a x B, a row-major [m, k] and B's [n, k] rows w, as the
// int8 convolution computes it: the 1x1 conv of a's transpose, a [k, 1, m]
// plane whose pixel i is row i of a, into channel-major [n, m] outputs.
// The plane is written as the quantizer writes a pointwise conv's, in
// pair rows padded to the quad; the requantize scale is 1 with no bias or
// activation, so each output is float32(acc), exact below 2^24.
func matrixJob(a, w []int8, m, k, n int) *convJob {
	codes := make([]int16, (k+gemmMR-1)&^(gemmMR-1)*m)
	for i := range m {
		for c := range k {
			codes[(c&^1)*m+2*i+c&1] = int16(a[i*k+c])
		}
	}
	out, scales := make([]float32, n*m), make([]float32, n)
	for oc := range scales {
		scales[oc] = 1
	}
	return &convJob{out: out, acc: int32Rows(out), codes: codes, qw: w, scales: scales, spec: Conv2DSpec{Stride: 1},
		geo: convGeom{cin: k, h: 1, wd: m, cout: n, kh: 1, kw: 1, hout: 1, wout: m}, k: k, npix: m,
		kernel: (*convJob).qband}
}

// qRowRange computes rows [rlo, rhi) of dst = a x B, row i at dst[i*n:],
// overwriting them: pixels [rlo, rhi) of j, every channel, read back.
func qRowRange(dst []int32, j *convJob, rlo, rhi int) {
	j.shard(rlo, rhi)
	readRows(dst, j, rlo, rhi)
}

// readRows copies rows [rlo, rhi) of a x B out of j's channel-major
// outputs into dst.
func readRows(dst []int32, j *convJob, rlo, rhi int) {
	for i := rlo; i < rhi; i++ {
		for c := range j.geo.cout {
			dst[i*j.geo.cout+c] = int32(j.out[c*j.npix+i])
		}
	}
}

// qgemmSerial is a x b through the int8 convolution on the calling
// goroutine; qgemmSharded cuts the same multiply into pixel chunks across
// the worker pool, wherever the chunks fall.
func qgemmSerial(dst []int32, a, b []int8, m, k, n int) {
	qRowRange(dst, matrixJob(a, packB(b, k, n), m, k, n), 0, m)
}

func qgemmSharded(dst []int32, a, b []int8, m, k, n, grain int) {
	j := matrixJob(a, packB(b, k, n), m, k, n)
	parallelFor(m, grain, j.shard)
	readRows(dst, j, 0, m)
}

func randQ(r *rand.Rand, n int) []int8 {
	out := make([]int8, n)
	for i := range out {
		out[i] = int8(r.Intn(255) - 127)
	}
	return out
}

func TestQGEMMMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {4, 256, 9}, {17, 300, 33}, {64, 64, 64}, {2, 515, 2}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randQ(r, m*k), randQ(r, k*n)
		want := make([]int32, m*n)
		qnaive(want, a, b, m, k, n)
		got := make([]int32, m*n)
		qgemmSerial(got, a, b, m, k, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dims %v: serial dst[%d] = %d, want %d", dims, i, got[i], want[i])
			}
		}
		clear(got)
		qgemmSharded(got, a, b, m, k, n, 1)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dims %v: parallel dst[%d] = %d, want %d", dims, i, got[i], want[i])
			}
		}
	}
}

// TestQGEMMParallelOddM shards the int8 convolution's pixels above the
// parallel threshold with odd M, at the conv's grain, so shard boundaries
// fall off the vector body's groups of eight and sixteen and every shard
// may end on a masked tail. Integer accumulation is exact, so parallel
// must equal serial bit for bit.
func TestQGEMMParallelOddM(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, dims := range [][3]int{{129, 160, 160}, {255, 128, 64}, {65, 127, 255}} {
		m, k, n := dims[0], dims[1], dims[2]
		if m*k*n < ParallelThresholdMACs() {
			t.Fatalf("dims %v below parallel threshold; test would not exercise sharding", dims)
		}
		a, b := randQ(r, m*k), randQ(r, k*n)
		want := make([]int32, m*n)
		qgemmSerial(want, a, b, m, k, n)
		got := make([]int32, m*n)
		qgemmSharded(got, a, b, m, k, n, grainForMACs(k*n))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dims %v: parallel dst[%d] = %d, want %d", dims, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkQGEMM512 and BenchmarkGEMMFP32Blocked512 time each datatype's
// kernel alone, on one core, on a 512x512x512 product. The int8 one is a
// 1x1 convolution from 512 channels to 512 on a 512-pixel plane
// (matrixJob), its input codes already rounded: on the vector body its
// GMAC/s is the rate BenchmarkQMACVectorPeak bounds, on the Go path, one
// multiply a MAC, the rate BenchmarkIMULPeak bounds. The FP32 one is the
// channel-major kernel on matMulJob's view: weights and input rows read in
// place, cut by columns. An FP32 MAC is one multiply and one add, so its
// GMAC/s is the rate BenchmarkFMULPeak bounds.
func BenchmarkQGEMM512(b *testing.B) {
	const d = 512
	r := rand.New(rand.NewSource(1))
	j := matrixJob(randQ(r, d*d), packB(randQ(r, d*d), d, d), d, d, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.shard(0, d)
	}
	b.ReportMetric(float64(d*d*d)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}

// imulSink keeps BenchmarkIMULPeak's chains live.
var imulSink int64

// BenchmarkIMULPeak probes the ceiling the int8 kernel's Go path runs
// against: IMULChains' eight independent 64-bit multiply-add chains, more
// multiplies in flight than one multiply port retires, reported as
// Gmul/s on one core.
func BenchmarkIMULPeak(b *testing.B) {
	const steps = 1 << 16
	for i := 0; i < b.N; i++ {
		imulSink ^= IMULChains(steps)
	}
	b.ReportMetric(IMULChainsWide*steps*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmul/s")
}

func BenchmarkGEMMFP32Blocked512(b *testing.B) {
	const d = 512
	a, bb := New(d, d), New(d, d)
	for i := range a.Data {
		a.Data[i] = float32(i%255) - 127
		bb.Data[i] = float32((i*7)%255) - 127
	}
	j := matMulJob(make([]float32, d*d), a.Data, bb.Data, d, d, d, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.shard(0, d)
	}
	b.ReportMetric(float64(d*d*d)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}

// fmulSink keeps BenchmarkFMULPeak's chains live.
var fmulSink float32

// BenchmarkFMULPeak probes the ceiling the FP32 kernel runs against:
// FMULChains' twelve independent float32 multiply-then-add chains, more
// in flight than the multiply and add ports retire, reported as
// Gmuladd/s on one core.
func BenchmarkFMULPeak(b *testing.B) {
	const steps = 1 << 16
	for i := 0; i < b.N; i++ {
		fmulSink += FMULChains(steps)
	}
	b.ReportMetric(FMULChainsWide*steps*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmuladd/s")
}

// BenchmarkFMULVectorPeak probes the ceiling the FP32 convolutions'
// vector body runs against: FMULVectorChains' twelve eight-lane
// multiply-then-add chains.
func BenchmarkFMULVectorPeak(b *testing.B) {
	if VectorISA() == "" {
		b.Skip("no vector body on this CPU")
	}
	const steps = 1 << 16
	for i := 0; i < b.N; i++ {
		fmulSink += FMULVectorChains(steps)
	}
	b.ReportMetric(FMULVectorWide*steps*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gmuladd/s")
}

// qmacSink keeps BenchmarkQMACVectorPeak's chains live.
var qmacSink int32

// BenchmarkQMACVectorPeak probes the ceiling the int8 microkernel's
// vector body runs against: QMACVectorChains' twelve eight-lane VPMADDWD
// and VPADDD chains, reported as GMAC/s (int16 products) on one core.
func BenchmarkQMACVectorPeak(b *testing.B) {
	if VectorISA() == "" {
		b.Skip("no vector body on this CPU")
	}
	const steps = 1 << 16
	for i := 0; i < b.N; i++ {
		qmacSink ^= QMACVectorChains(steps)
	}
	b.ReportMetric(QMACVectorWide*steps*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}
