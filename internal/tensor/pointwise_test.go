package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// bitsOrNaN reports whether two float32 slices are bitwise identical
// where either element is a number, and both NaN where either is. Which
// of two NaN operands an addition returns is the compiled instruction's
// operand order, so the sign of a NaN made from Inf·0 meeting an input
// NaN is not part of any kernel's contract.
func bitsOrNaN(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) && !(a[i] != a[i] && b[i] != b[i]) {
			return false
		}
	}
	return true
}

// checkPointwise runs the channel-major pointwise convolution into a
// NaN-poisoned dst and requires it to equal refConvBlocked bit for bit
// (bitsOrNaN).
func checkPointwise(t *testing.T, name string, in, w *Tensor, bias []float32, epi Epilogue) *Tensor {
	t.Helper()
	want := refConvBlocked(in, w, bias, Conv2DSpec{Stride: 1}, epi)
	got := dirty(want.Shape...)
	PointwiseConvInto(got, in, w, bias, epi)
	if !bitsOrNaN(got.Data, want.Data) {
		t.Errorf("%s: channel-major pointwise conv differs from the loop-nest reference", name)
	}
	return got
}

// salt overwrites every third element of data with ±0, NaN or ±Inf in
// turn, so the K tail's padding and the quads around it meet each.
func salt(data []float32) {
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for i := range data {
		if i%3 == 1 {
			data[i] = special[(i/3)%len(special)]
		}
	}
}

// TestPointwiseConvMatchesReference sweeps the channel-major kernel's
// edges against refConvBlocked: K of every residue mod the K-quad (1–8),
// K = 130 (two of the transposed kernel's K-blocks) and 960; Cout of
// every residue mod the channel pair, odd ones included; planes of 1,
// 49, 63, 64 and 65 pixels around the band, and 12544; inputs random or
// salted with ±0, NaN and ±Inf, or weights salted so, where a quad that
// read past its own row would meet them; nil and non-nil bias; no
// epilogue, and the affine with every activation.
func TestPointwiseConvMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	acts := []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh}
	cases := 0
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 130} {
		for _, cout := range []int{1, 2, 3, 4, 5} {
			w, saltedW := randTensor(r, cout, k, 1, 1), randTensor(r, cout, k, 1, 1)
			salt(saltedW.Data)
			_, _, _, _, _, affine := bnEpilogue(cout, k)
			for _, npix := range []int{1, 49, 63, 64, 65} {
				for _, salted := range []string{"none", "input", "weights"} {
					in, wt := randTensor(r, k, 1, npix), w
					switch salted {
					case "input":
						salt(in.Data)
					case "weights":
						wt = saltedW
					}
					for _, bias := range [][]float32{nil, randTensor(r, cout).Data} {
						epi := Epilogue{}
						if cases%2 == 1 {
							epi = affine
							epi.Act, epi.Alpha = acts[cases/2%len(acts)], 0.1
						}
						name := fmt.Sprintf("K%d cout%d npix%d salted=%s bias=%v affine=%v act=%d", k, cout, npix, salted, bias != nil, len(epi.Scale) > 0, epi.Act)
						checkPointwise(t, name, in, wt, bias, epi)
						cases++
					}
				}
			}
		}
	}
	for _, c := range []struct{ k, cout, h, w int }{
		{960, 160, 7, 7}, {960, 7, 7, 7}, {16, 96, 112, 112}, {32, 3, 112, 112},
	} {
		w := randTensor(r, c.cout, c.k, 1, 1)
		in := randTensor(r, c.k, c.h, c.w)
		salt(in.Data[:len(in.Data)/2])
		_, _, _, _, _, epi := bnEpilogue(c.cout, 7)
		epi.Act = ActReLU6
		checkPointwise(t, fmt.Sprintf("K%d cout%d %dx%d", c.k, c.cout, c.h, c.w), in, w, randTensor(r, c.cout).Data, epi)
	}
	if cases < 5*9*5*6 {
		t.Fatalf("sweep ran %d cases", cases)
	}
}

// TestPointwiseConvMatchesTransposed holds the two FP32 formulations to
// each other on every epilogue: the channel-major kernel and the
// transposed band pass on the same weights, on salted inputs, bit for
// bit (bitsOrNaN: under -race the two compile to other operand orders,
// and where an Inf·0 meets an input NaN they return different NaNs).
func TestPointwiseConvMatchesTransposed(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	const cin, cout, h, wd = 37, 11, 9, 13
	w := randTensor(r, cout, cin, 1, 1)
	in := randTensor(r, cin, h, wd)
	salt(in.Data)
	pw := PackConvWeights(w)
	_, _, _, _, _, affine := bnEpilogue(cout, 2)
	for _, act := range []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh} {
		for _, epi := range []Epilogue{{Act: act, Alpha: 0.1}, {Scale: affine.Scale, Shift: affine.Shift, Act: act, Alpha: 0.1}} {
			for _, bias := range [][]float32{nil, randTensor(r, cout).Data} {
				got, want := dirty(cout, h, wd), dirty(cout, h, wd)
				PointwiseConvInto(got, in, w, bias, epi)
				Conv2DPrepackedInto(want, in, pw, bias, Conv2DSpec{Stride: 1}, epi)
				if !bitsOrNaN(got.Data, want.Data) {
					t.Errorf("act=%d affine=%v bias=%v: channel-major and transposed formulations differ", act, len(epi.Scale) > 0, bias != nil)
				}
			}
		}
	}
}

// TestPointwiseConvPooledMatchesSerial shards the kernel both ways it
// cuts at two cores — by pixels, in chunks that end inside a band, and by
// channel pairs, on a 28x28 plane and on a 7x7 one with an odd Cout — and
// requires the pooled bits to be a single core's and the reference's.
func TestPointwiseConvPooledMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(139))
	const chunks = 2 * chunksPerWorker // parallelFor's cut at GOMAXPROCS 2
	for _, c := range []struct {
		name           string
		k, cout, h, wd int
		byPairs        bool
	}{
		{"pixels", 64, 48, 53, 61, false},
		{"pairs-28x28", 32, 191, 28, 28, true},
		{"pairs-7x7", 960, 161, 7, 7, true},
	} {
		npix, pairs := c.h*c.wd, (c.cout+1)/2
		if npix*c.k*c.cout < parallelThresholdMACs || (npix < pointwiseBand*chunks) != c.byPairs {
			t.Fatalf("%s: %d MACs on %d pixels do not shard by pairs=%v", c.name, npix*c.k*c.cout, npix, c.byPairs)
		}
		if chunk := max((npix+chunks-1)/chunks, grainForMACs(c.k*c.cout)); !c.byPairs && chunk%pointwiseBand == 0 {
			t.Fatalf("%s: chunks of %d pixels end on a band edge", c.name, chunk)
		}
		if c.byPairs && max((pairs+chunks-1)/chunks, grainForMACs(2*c.k*npix)) >= pairs {
			t.Fatalf("%s: %d channel pairs make one chunk", c.name, pairs)
		}
		w := randTensor(r, c.cout, c.k, 1, 1)
		in := randTensor(r, c.k, c.h, c.wd)
		salt(in.Data)
		bias := randTensor(r, c.cout).Data
		_, _, _, _, _, epi := bnEpilogue(c.cout, 3)
		epi.Act = ActReLU6
		old := runtime.GOMAXPROCS(2)
		pooled := checkPointwise(t, c.name, in, w, bias, epi)
		runtime.GOMAXPROCS(1)
		serial := dirty(pooled.Shape...)
		PointwiseConvInto(serial, in, w, bias, epi)
		runtime.GOMAXPROCS(old)
		if !bitsEqual(serial.Data, pooled.Data) {
			t.Errorf("%s: GOMAXPROCS 1 differs from pooled", c.name)
		}
	}
}
