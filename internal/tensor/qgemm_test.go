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
// b packed now; qgemmSharded cuts the same multiply into row pairs across
// the worker pool, the way the band pass shards pixels.
func qgemmSerial(dst []int32, a, b []int8, m, k, n int) {
	gemmInt8.rowRange(dst, a, packB(gemmInt8, b, k, n), 0, m)
}

func qgemmSharded(dst []int32, a, b []int8, m, k, n, grain int) {
	pq := packB(gemmInt8, b, k, n)
	parallelFor((m+1)/2, grain, func(lo, hi int) {
		rlo, rhi := qgemmPairRange(lo, hi, m)
		gemmInt8.rowRange(dst, a, pq, rlo, rhi)
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
// threshold with odd M, by pairs at the band pass's grain: shard
// boundaries must land on even rows so the SWAR two-rows-per-int64
// pairing stays intact, and only the final row pays the single-row
// remainder kernel. Integer accumulation is exact, so parallel must equal
// serial bit for bit.
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
		qgemmSharded(got, a, b, m, k, n, grainForMACs(2*k*n))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dims %v: parallel dst[%d] = %d, want %d", dims, i, got[i], want[i])
			}
		}
	}
}

// TestQGEMMPairRange pins the pair-to-row mapping: even boundaries
// everywhere, the odd remainder row owned by the last pair, and full
// coverage of [0, m).
func TestQGEMMPairRange(t *testing.T) {
	cases := []struct {
		lo, hi, m, rlo, rhi int
	}{
		{0, 2, 8, 0, 4},
		{2, 4, 8, 4, 8},
		{0, 3, 5, 0, 5}, // last pair absorbs the remainder row
		{2, 3, 5, 4, 5}, // remainder pair alone
		{0, 1, 1, 0, 1}, // m=1: a single lone row
		{0, 65, 129, 0, 129},
	}
	for _, c := range cases {
		rlo, rhi := qgemmPairRange(c.lo, c.hi, c.m)
		if rlo != c.rlo || rhi != c.rhi {
			t.Errorf("qgemmPairRange(%d, %d, m=%d) = [%d, %d), want [%d, %d)",
				c.lo, c.hi, c.m, rlo, rhi, c.rlo, c.rhi)
		}
		if rlo%2 != 0 {
			t.Errorf("qgemmPairRange(%d, %d, m=%d): shard start %d is odd", c.lo, c.hi, c.m, rlo)
		}
	}
}

// BenchmarkQGEMM512 and BenchmarkGEMMFP32Blocked512 time the two tile
// loops alone, on one core, over panels packed outside the loop.
func BenchmarkQGEMM512(b *testing.B) {
	const d = 512
	r := rand.New(rand.NewSource(1))
	a, pq := randQ(r, d*d), packB(gemmInt8, randQ(r, d*d), d, d)
	dst := make([]int32, d*d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gemmInt8.rowRange(dst, a, pq, 0, d)
	}
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
}
