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

// packB packs a row-major [k, n] B matrix, the operand the tile-loop
// tests and benchmarks multiply by, as the [n, k, 1, 1] weights of its
// transpose.
func packB(b []int8, k, n int) *PackedQWeights {
	if len(b) != k*n {
		panic("packB: data length does not match k x n")
	}
	bt := make([]int8, len(b))
	for r := range k {
		for c := range n {
			bt[c*k+r] = b[r*n+c]
		}
	}
	return PackQConvWeights(&QTensor{Shape: Shape{n, k, 1, 1}, Data: bt, Scale: 1})
}

// matrixJob views a row-major [m, pq.K] matrix a as what the tile loop
// multiplies: the im2row matrix of a 1 x K convolution over a [1, m, K]
// plane, whose pixel i has row i of a for its one window. Every window is
// interior, so the microkernel stages a's rows in one gather per K-block.
func matrixJob(a []int8, pq *PackedQWeights) *bandJob {
	m := len(a) / pq.K
	return &bandJob{in: a, pw: pq, spec: Conv2DSpec{Stride: 1},
		geo: convGeom{cin: 1, h: m, wd: pq.K, cout: pq.N, kh: 1, kw: pq.K, hout: m, wout: 1}}
}

// qRowRange computes rows [rlo, rhi) of dst = a x B for a row-major a
// [m, pq.K] and packed B, row i at dst[i*pq.N:], overwriting them: the
// tile loop on matrixJob's view of a.
func qRowRange(dst []int32, a []int8, pq *PackedQWeights, rlo, rhi int) {
	matrixJob(a, pq).rowRange(dst[rlo*pq.N:], make([]window, rhi-rlo), rlo, rhi)
}

// qgemmSerial is a x b through the int8 tile loop on the calling goroutine,
// b packed now; qgemmSharded cuts the same multiply into row chunks across
// the worker pool, wherever the chunks fall.
func qgemmSerial(dst []int32, a, b []int8, m, k, n int) {
	qRowRange(dst, a, packB(b, k, n), 0, m)
}

func qgemmSharded(dst []int32, a, b []int8, m, k, n, grain int) {
	pq := packB(b, k, n)
	parallelFor(m, grain, func(lo, hi int) {
		qRowRange(dst, a, pq, lo, hi)
	})
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

// TestQGEMMParallelOddM shards the tile loop's rows above the parallel
// threshold with odd M, at the band pass's grain, so shard boundaries fall
// off the lane triples and every shard may end on a short triple. Integer
// accumulation is exact, so parallel must equal serial bit for bit.
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
// kernel alone, on one core, on a 512x512x512 product. The int8 tile loop
// runs over panels packed outside the loop, its A operand staged as
// matrixJob's 1 x 512 convolution. On the vector body its GMAC/s is the
// rate BenchmarkQMACVectorPeak bounds; on the Go path MAC/mul is its
// rows per 64-bit multiply, and GMAC/s over it the multiply rate
// BenchmarkIMULPeak bounds. The FP32 one is the channel-major kernel on
// matMulJob's view: weights and input rows read in place, cut by columns.
// An FP32 MAC is one multiply and one add, so its GMAC/s is the rate
// BenchmarkFMULPeak bounds.
func BenchmarkQGEMM512(b *testing.B) {
	const d = 512
	r := rand.New(rand.NewSource(1))
	j := matrixJob(randQ(r, d*d), packB(randQ(r, d*d), d, d))
	dst, win := make([]int32, d*d), make([]window, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.rowRange(dst, win, 0, d)
	}
	b.ReportMetric(float64(d*d*d)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
	if !Int8ConvVector(d) {
		b.ReportMetric(qgemmLanes, "MAC/mul")
	}
}

// imulSink keeps BenchmarkIMULPeak's chains live.
var imulSink int64

// BenchmarkIMULPeak probes the ceiling the int8 kernel runs against:
// IMULChains' eight independent 64-bit multiply-add chains, more
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
