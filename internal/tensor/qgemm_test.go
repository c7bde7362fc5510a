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

// qgemmSerial is a x b through the int8 tile loop on the calling goroutine,
// b packed now; qgemmSharded cuts the same multiply into row chunks across
// the worker pool, wherever the chunks fall.
func qgemmSerial(dst []int32, a, b []int8, m, k, n int) {
	gemmInt8.rowRange(dst, a, packB(gemmInt8, b, k, n), 0, m)
}

func qgemmSharded(dst []int32, a, b []int8, m, k, n, grain int) {
	pq := packB(gemmInt8, b, k, n)
	parallelFor(m, grain, func(lo, hi int) {
		gemmInt8.rowRange(dst, a, pq, lo, hi)
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

// BenchmarkQGEMM512 and BenchmarkGEMMFP32Blocked512 time the two tile
// loops alone, on one core, over panels packed outside the loop. MAC/mul
// is the int8 kernel's rows per 64-bit multiply; GMAC/s over it is the
// multiply rate BenchmarkIMULPeak bounds. An FP32 MAC is one multiply and
// one add, so BenchmarkGEMMFP32Blocked512's GMAC/s is the rate
// BenchmarkFMULPeak bounds.
func BenchmarkQGEMM512(b *testing.B) {
	const d = 512
	r := rand.New(rand.NewSource(1))
	a, pq := randQ(r, d*d), packB(gemmInt8, randQ(r, d*d), d, d)
	dst := make([]int32, d*d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmInt8.rowRange(dst, a, pq, 0, d)
	}
	b.ReportMetric(float64(d*d*d)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
	b.ReportMetric(qgemmLanes, "MAC/mul")
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
	pw := packB(gemmFP32, bb.Data, d, d)
	dst := make([]float32, d*d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmFP32.rowRange(dst, a.Data, pw, 0, d)
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
