package tensor

import (
	"math"
	"math/rand"
	"sync"
	"syscall"
	"testing"
	"unsafe"
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
// K-block, which meet zero weights, hold arbitrary codes. go test runs the
// seed corpus; make fuzz runs the target for a bounded time.
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

	})
}

// FuzzMaxPoolRow runs the max-pool row's vector body (maxPoolRowAVX2) and
// the Go interior loop (maxPoolPlanes with useAVX2 cleared) on copies of
// the same three input rows and requires equal bits. The input chooses
// the row's window count (8 to 71: one group of eight, every overlap of
// the last group, many groups), where the output starts in its buffer,
// and how many inputs are salted with the values a max must order with
// care: both zeros, NaNs of both signs and several payloads, both
// infinities, ±MaxFloat32 and subnormals. Each row ends at
// the last float of a page of its own that is followed by a page that
// cannot be read, so a load past the last tap faults, and the page before
// the row holds +Inf, which would win any window that read it; the
// output's slack on both sides holds NaN canaries, which both paths must
// leave untouched. go test runs the seed corpus; make fuzz runs the
// target for a bounded time.
func FuzzMaxPoolRow(f *testing.F) {
	for _, s := range []struct{ n, ooff, salt uint8 }{
		{0, 0, 0}, {1, 7, 40}, {7, 5, 255}, {8, 3, 9}, {9, 1, 128}, {15, 7, 17}, {24, 6, 200}, {63, 5, 3},
	} {
		f.Add(s.n, s.ooff, s.salt, int64(s.n)*131+int64(s.ooff))
	}
	f.Fuzz(func(t *testing.T, n8, ooff8, salt uint8, seed int64) {
		if !useAVX2 {
			t.Skip("no vector body on this CPU")
		}
		const canary = 8
		n := 8 + int(n8)%64
		w := 2*n + 1
		inf := float32(math.Inf(1))
		r := rand.New(rand.NewSource(seed))
		plane := make([]float32, 3*w)
		for i := range plane {
			plane[i] = float32(r.NormFloat64())
			if r.Intn(256) < int(salt) {
				plane[i] = saltSpecials[r.Intn(len(saltSpecials))]
			}
		}
		pages, err := guardedPages()
		if err != nil {
			t.Fatal(err)
		}
		var rows [3][]float32
		for i, page := range pages {
			for j := range page {
				page[j] = inf
			}
			rows[i] = page[len(page)-w:]
			copy(rows[i], plane[i*w:(i+1)*w])
		}
		ooff := int(ooff8) % 8
		obuf := make([]float32, ooff+n+canary)
		for i := range obuf {
			obuf[i] = math.Float32frombits(0x7fa5a500 + uint32(i))
		}
		got, want := append([]float32(nil), obuf...), append([]float32(nil), obuf...)
		maxPoolRowAVX2(got[ooff:][:n], rows[0], rows[1], rows[2])
		useAVX2 = false
		maxPoolPlanes(want[ooff:][:n], plane, 3, w, 1, n, PoolSpec{Kernel: 3, Stride: 2})
		useAVX2 = true
		for i := range obuf {
			g := math.Float32bits(got[i])
			if g != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: element %d: vector %#08x, Go %#08x", n, i, g, math.Float32bits(want[i]))
			}
			if (i < ooff || i >= ooff+n) && g != math.Float32bits(obuf[i]) {
				t.Fatalf("n=%d: canary %d overwritten: %#08x", n, i, g)
			}
		}
	})
}

// FuzzDepthwiseRow runs depthwiseRows on the vector body (depthwiseAVX2)
// and on the Go kernel (depthwiseRow with useAVX2 cleared) over the same
// one-channel plane, taps and bias, and requires equal bits, any NaN
// matching any NaN (the two may keep different payloads where two NaNs
// meet). The input chooses the plane's height and width (3 to 40: every
// interior tail mod 8 and 16 at both strides, interiors of none to 38
// columns), the stride (1 or 2) and each axis' padding (0 or 1), the
// output rows [oy0, oy1) the call computes (a sharded call starts and
// ends inside a channel), and how many inputs, taps and the bias
// saltSpecials salts. One input in four takes a shape depthwise3x3Fits
// refuses — stride 3, or padding 2 on both axes — which must take the
// pixel loop on both paths and so agree too. The plane ends at the last
// float of a guarded page, so a load past it faults, and the page before
// it holds NaN, which would reach any output that read it; the output
// rows outside the span and the slack on both sides of the output hold
// NaN canaries, which both paths must leave untouched, bit for bit. go
// test runs the seed corpus; make fuzz runs the target for a bounded
// time.
func FuzzDepthwiseRow(f *testing.F) {
	for _, s := range []struct {
		h, w, geom, salt uint8
		rows             uint16
	}{
		{0, 0, 0, 0, 0}, {4, 4, 7, 40, 0}, {11, 11, 6, 255, 0}, {11, 11, 7, 9, 0}, {11, 11, 7, 128, 0x0203},
		{25, 25, 7, 17, 0}, {53, 53, 7, 60, 0x0105}, {0, 1, 7, 200, 0}, {1, 0, 6, 3, 0}, {37, 37, 1, 20, 0xff07},
		{5, 12, 2, 30, 0x0401}, {20, 21, 4, 10, 0}, {9, 9, 0xc7, 50, 0}, {9, 9, 0xe0, 50, 0x0101},
		{12, 30, 3, 0, 0}, {2, 14, 5, 90, 0x0002}, {7, 9, 7, 70, 0}, {10, 8, 6, 15, 0x0004},
	} {
		f.Add(s.h, s.w, s.geom, s.salt, s.rows, int64(s.h)*131+int64(s.w))
	}
	f.Fuzz(func(t *testing.T, h8, w8, geom, salt uint8, rows uint16, seed int64) {
		if !useAVX2 {
			t.Skip("no vector body on this CPU")
		}
		const canary = 8
		h, wd := 3+int(h8)%38, 3+int(w8)%38
		spec := Conv2DSpec{Stride: 1 + int(geom)&1, PadH: int(geom>>1) & 1, PadW: int(geom>>2) & 1, Asym: true}
		switch geom >> 5 {
		case 6:
			spec.Stride = 3
		case 7:
			spec.PadH, spec.PadW = 2, 2
		}
		hout, wout := spec.OutDims(h, wd, 3, 3)
		oy0 := int(rows&0xff) % hout
		oy1 := hout - int(rows>>8)%(hout-oy0)
		r := rand.New(rand.NewSource(seed))
		value := func() float32 {
			if r.Intn(256) < int(salt) {
				return saltSpecials[r.Intn(len(saltSpecials))]
			}
			return float32(r.NormFloat64())
		}
		pages, err := guardedPages()
		if err != nil {
			t.Fatal(err)
		}
		page := pages[0]
		for i := range page {
			page[i] = float32(math.NaN())
		}
		plane := page[len(page)-h*wd:]
		for i := range plane {
			plane[i] = value()
		}
		taps := make([]float32, 9)
		for i := range taps {
			taps[i] = value()
		}
		bias := []float32{value()}
		ooff := int(r.Intn(8))
		obuf := make([]float32, ooff+hout*wout+canary)
		for i := range obuf {
			obuf[i] = math.Float32frombits(0x7fa5a500 + uint32(i))
		}
		got, want := append([]float32(nil), obuf...), append([]float32(nil), obuf...)
		in, w := &Tensor{Shape: Shape{1, h, wd}, Data: plane}, &Tensor{Shape: Shape{1, 3, 3}, Data: taps}
		for _, c := range []struct {
			out    []float32
			vector bool
		}{{got, true}, {want, false}} {
			useAVX2 = c.vector
			dst := &Tensor{Shape: Shape{1, hout, wout}, Data: c.out[ooff:][:hout*wout]}
			depthwiseRows(dst, in, w, bias, spec, oy0, oy1, Epilogue{})
		}
		useAVX2 = true
		lo, hi := ooff+oy0*wout, ooff+oy1*wout
		if !bitsOrNaN(got[lo:hi], want[lo:hi]) {
			t.Fatalf("%dx%d %+v rows [%d, %d): vector %v, Go %v", h, wd, spec, oy0, oy1, got[lo:hi], want[lo:hi])
		}
		for i := range obuf {
			if (i < lo || i >= hi) && (math.Float32bits(got[i]) != math.Float32bits(obuf[i]) || math.Float32bits(want[i]) != math.Float32bits(obuf[i])) {
				t.Fatalf("%dx%d %+v rows [%d, %d): canary %d overwritten", h, wd, spec, oy0, oy1, i)
			}
		}
	})
}

// FuzzQuantizeRow runs the activation quantizer's vector bodies
// (quantizeRowAVX2 through quantizePairRow, maxAbsAVX2 through maxAbs)
// and their Go loops on copies of the same rows, and requires equal codes
// and an equal maximum. The input chooses the plane's length (1 to 520:
// every tail mod 8 and 16), where the span starts in it (the span runs to
// the plane's end), the inverse scale's bits (negative, zero, subnormal,
// infinite and NaN scales included: the body must match the loop on
// every float) and how many inputs quantSalt salts. The two channels'
// source rows and the pair row they are written to end at the last
// element of a page followed by one that can be neither read nor
// written, so a load or store past the span faults; the destination
// holds -32768 before the span, which neither path may overwrite. A lone
// last channel (quantizePairRow with no partner) is written too, and must
// leave its partner's slots as they were. go test runs the seed corpus;
// make fuzz runs the target for a bounded time.
func FuzzQuantizeRow(f *testing.F) {
	for _, s := range []struct {
		plane, off uint16
		inv        float32
		salt       uint8
	}{
		{1, 0, 0.25, 0}, {8, 0, 0.25, 255}, {9, 1, 127.0 / 6, 40}, {16, 3, 0.25, 128}, {17, 0, 127.0 / 1e4, 9},
		{24, 7, -0.6, 60}, {63, 5, 1e30, 20}, {520, 11, 0.25, 30}, {333, 0, float32(math.NaN()), 10}, {40, 8, 0, 80},
	} {
		f.Add(s.plane, s.off, math.Float32bits(s.inv), s.salt, int64(s.plane)*131+int64(s.off))
	}
	f.Fuzz(func(t *testing.T, plane16, off16 uint16, invBits uint32, salt uint8, seed int64) {
		if !useAVX2 {
			t.Skip("no vector body on this CPU")
		}
		plane := 1 + int(plane16)%520
		off, inv := int(off16)%plane, math.Float32frombits(invBits)
		r := rand.New(rand.NewSource(seed))
		pages, err := guardedPages()
		if err != nil {
			t.Fatal(err)
		}
		a, b := pages[0][len(pages[0])-plane:], pages[1][len(pages[1])-plane:]
		for _, row := range [][]float32{a, b} {
			for i := range row {
				row[i] = float32(r.NormFloat64() * 100)
			}
			quantSalt(r, row, inv, int(salt))
		}
		ga, gb := append([]float32(nil), a...), append([]float32(nil), b...)
		useAVX2 = false
		want := math.Float32bits(maxAbs(ga[off:]))
		useAVX2 = true
		if got := math.Float32bits(maxAbs(a[off:])); got != want {
			t.Fatalf("plane=%d off=%d: max-abs vector %#08x, Go %#08x", plane, off, got, want)
		}
		page := unsafe.Slice((*int16)(unsafe.Pointer(unsafe.SliceData(pages[2]))), 2*len(pages[2]))
		for _, lone := range []bool{false, true} {
			vec, ref := page[len(page)-2*plane:], make([]int16, 2*plane)
			for i := range vec {
				vec[i], ref[i] = math.MinInt16, math.MinInt16
			}
			for _, c := range []struct {
				dst    []int16
				a, b   []float32
				vector bool
			}{{vec, a, b, true}, {ref, ga, gb, false}} {
				useAVX2 = c.vector
				if lone {
					c.b = nil
				} else {
					c.b = c.b[off:]
				}
				quantizePairRow(c.dst[2*off:], c.a[off:], c.b, inv)
			}
			useAVX2 = true
			for i := range ref {
				if vec[i] != ref[i] || lone && i%2 == 1 && vec[i] != math.MinInt16 {
					t.Fatalf("plane=%d off=%d inv=%g lone=%v: slot %d: vector %d, Go %d", plane, off, inv, lone, i, vec[i], ref[i])
				}
			}
		}
	})
}

// guardedPages maps, once per process, three readable buffers of two
// pages of float32s (at least 2048, room for a 40x40 plane), each
// followed by a page that can be neither read nor written: a row cut to
// end at a buffer's end faults on any load or store past its last
// element.
var guardedPages = sync.OnceValues(func() ([3][]float32, error) {
	var pages [3][]float32
	size := syscall.Getpagesize()
	for i := range pages {
		mem, err := syscall.Mmap(-1, 0, 3*size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err == nil {
			err = syscall.Mprotect(mem[2*size:], syscall.PROT_NONE)
		}
		if err != nil {
			return pages, err
		}
		pages[i] = unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), 2*size/4)
	}
	return pages, nil
})
