package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzQPointwiseQuads runs the int8 microkernel's vector body
// (qpointwiseQuadsAVX2) and its Go loop on copies of the same operands and
// requires equal int32 rows. The input chooses the K-block depth (1 to
// gemmKC, odd included), the pixel count (1 to 67: every tail mod 8 and
// 16, and the single pixel of a dense layer), the pair-row stride's slack,
// where each operand starts in its buffer, whether the second weight row
// is the first (an odd last channel paired with itself) and how many codes
// are salted with +-127. Every buffer has slack on both sides filled with
// canaries, which both paths must leave untouched; the pair rows past the
// K-block, which meet zero weights, hold arbitrary codes. The same pair
// rows then go through interleave on both paths. go test runs the seed
// corpus; make fuzz runs the target for a bounded time.
func FuzzQPointwiseQuads(f *testing.F) {
	for _, s := range []struct {
		kb, n, slack, off uint8
		self              bool
		salt              uint8
	}{
		{27, 13, 0, 0, false, 0}, {75, 1, 3, 5, true, 9}, {128, 67, 1, 7, false, 255},
		{1, 8, 0, 1, true, 0}, {64, 16, 2, 0, false, 40}, {127, 17, 5, 3, false, 128},
		{19, 24, 0, 2, true, 17}, {4, 31, 7, 6, false, 3}, {3, 9, 1, 4, false, 200},
	} {
		f.Add(s.kb, s.n, s.slack, s.off, s.self, s.salt, int64(s.kb)*31+int64(s.n))
	}
	f.Fuzz(func(t *testing.T, kb8, n8, slack, off uint8, self bool, salt uint8, seed int64) {
		if !useAVX2 {
			t.Skip("no vector body on this CPU")
		}
		const canary = 8
		kb, n := 1+int(kb8)%gemmKC, 1+int(n8)%67
		stride, xoff, woff, ooff := 2*n+2*int(slack%8), int(off%8), int(off/8%4), int(off/32%8)
		r := rand.New(rand.NewSource(seed))
		code := func() int8 {
			if r.Intn(256) < int(salt) {
				return int8(127 - 254*r.Intn(2))
			}
			return int8(r.Intn(255) - 127)
		}
		rows := (kb + gemmMR - 1) / gemmMR * 2
		x := make([]int16, xoff+(rows-1)*stride+2*n+canary)
		for i := range x {
			x[i] = int16(code())
		}
		x = x[xoff : len(x)-canary]
		wbuf := make([]int8, woff+2*kb+canary)
		for i := range wbuf {
			wbuf[i] = code()
		}
		w0, w1 := wbuf[woff:][:kb], wbuf[woff+kb:][:kb]
		if self {
			w1 = w0
		}
		obuf := make([]int32, 2*(ooff+n+canary))
		for i := range obuf {
			obuf[i] = math.MinInt32 + int32(i)
		}
		for _, row := range [][]int32{obuf[ooff:][:n], obuf[ooff+n+canary:][:n]} {
			for p := range row {
				row[p] = int32(r.Uint32()) >> 8
			}
		}
		got, want := append([]int32(nil), obuf...), append([]int32(nil), obuf...)
		run := func(buf []int32, vector bool) {
			defer func(v bool) { useAVX2 = v }(useAVX2)
			useAVX2 = vector
			qpointwiseQuads(buf[ooff:][:n], buf[ooff+n+canary:][:n], x, stride, w0, w1)
		}
		run(got, true)
		run(want, false)
		for i := range obuf {
			inRow := (i >= ooff && i < ooff+n) || (i >= ooff+n+canary && i < ooff+2*n+canary)
			if got[i] != want[i] {
				t.Fatalf("kb=%d n=%d stride=%d self=%v: element %d: vector %d, Go %d", kb, n, stride, self, i, got[i], want[i])
			}
			if !inRow && got[i] != obuf[i] {
				t.Fatalf("kb=%d n=%d: canary %d overwritten: %d", kb, n, i, got[i])
			}
		}

		a, b := x[:n], x[stride:][:n]
		ibuf := make([]int16, 2*n+2*canary)
		for i := range ibuf {
			ibuf[i] = math.MinInt16
		}
		iv, ig := append([]int16(nil), ibuf...), append([]int16(nil), ibuf...)
		for _, c := range []struct {
			dst    []int16
			vector bool
		}{{iv, true}, {ig, false}} {
			useAVX2 = c.vector
			interleave(c.dst[canary:][:2*n], a, b)
		}
		useAVX2 = true
		for i := range ibuf {
			want := ibuf[i]
			if p := i - canary; p >= 0 && p < 2*n {
				want = []int16{a[p/2], b[p/2]}[p%2]
			}
			if iv[i] != want || ig[i] != want {
				t.Fatalf("n=%d: interleaved element %d: vector %d, Go %d, want %d", n, i, iv[i], ig[i], want)
			}
		}
	})
}
