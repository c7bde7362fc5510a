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
	Conv2DInto(got, in, w, bias, Conv2DSpec{Stride: 1}, epi)
	if !bitsOrNaN(got.Data, want.Data) {
		t.Errorf("%s: channel-major pointwise conv differs from the loop-nest reference", name)
	}
	return got
}

// specials are the values salted tests write: ±0, NaN and ±Inf.
var specials = []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}

// saltPixels overwrites all channels of every fourth pixel of a [C, H, W]
// tensor with ±0, NaN and ±Inf in turn, so the K tail's padding and the
// quads around it meet each, while the outputs that read no salted pixel
// stay finite and compare bit for bit.
func saltPixels(t *Tensor) {
	npix := t.Shape[1] * t.Shape[2]
	for p := 0; p < npix; p += 4 {
		for c := range t.Shape[0] {
			t.Data[c*npix+p] = specials[(c+p/4)%len(specials)]
		}
	}
}

// saltRows overwrites every fourth output row of [Cout, ...] weights
// whole with ±0, NaN and ±Inf in turn: the other channels' outputs stay
// finite, and a quad that read past its own row would meet a salted one.
func saltRows(w *Tensor) {
	k := len(w.Data) / w.Shape[0]
	for oc := 0; oc < w.Shape[0]; oc += 4 {
		for i := range k {
			w.Data[oc*k+i] = specials[(i+oc/4)%len(specials)]
		}
	}
}

// TestPointwiseConvMatchesReference sweeps the in-place pointwise read's
// edges against refConvBlocked: K of every residue mod the K-quad (1–8),
// K = 130 and 960; Cout of every residue mod the channel pair, odd ones
// included; planes of 1, 49, 63, 64 and 65 pixels, and 12544 (many bands
// and a short last one); inputs random or
// salted with ±0, NaN and ±Inf, or weights salted so, where a quad that
// read past its own row would meet them; nil and non-nil bias; no
// epilogue, and the affine with every activation.
func TestPointwiseConvMatchesReference(t *testing.T) {
	onEachPath(t, testPointwiseConvMatchesReference)
}

func testPointwiseConvMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	acts := []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh}
	cases := 0
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 130} {
		for _, cout := range []int{1, 2, 3, 4, 5} {
			w, saltedW := randTensor(r, cout, k, 1, 1), randTensor(r, cout, k, 1, 1)
			saltRows(saltedW)
			_, _, _, _, _, affine := bnEpilogue(cout, k)
			for _, npix := range []int{1, 49, 63, 64, 65} {
				for _, salted := range []string{"none", "input", "weights"} {
					in, wt := randTensor(r, k, 1, npix), w
					switch salted {
					case "input":
						saltPixels(in)
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
		saltPixels(in)
		_, _, _, _, _, epi := bnEpilogue(c.cout, 7)
		epi.Act = ActReLU6
		checkPointwise(t, fmt.Sprintf("K%d cout%d %dx%d", c.k, c.cout, c.h, c.w), in, w, randTensor(r, c.cout).Data, epi)
	}
	if cases < 5*9*5*6 {
		t.Fatalf("sweep ran %d cases", cases)
	}
}

// TestPointwiseConvMatchesTransposed holds a pointwise conv's two reads
// of its input to each other on every epilogue: its rows in place, as a
// compiled program runs it, and staged into scratch as a K x K conv's
// are, on salted inputs, bit for bit (bitsOrNaN: where an Inf·0 meets an
// input NaN the two paths may return different NaNs).
func TestPointwiseConvMatchesTransposed(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	const cin, cout, h, wd = 37, 11, 9, 13
	w := randTensor(r, cout, cin, 1, 1)
	in := randTensor(r, cin, h, wd)
	saltPixels(in)
	_, _, _, _, _, affine := bnEpilogue(cout, 2)
	for _, act := range []Act{ActNone, ActReLU, ActReLU6, ActLeakyReLU, ActSigmoid, ActTanh} {
		for _, epi := range []Epilogue{{Act: act, Alpha: 0.1}, {Scale: affine.Scale, Shift: affine.Shift, Act: act, Alpha: 0.1}} {
			for _, bias := range [][]float32{nil, randTensor(r, cout).Data} {
				got, want := dirty(cout, h, wd), dirty(cout, h, wd)
				Conv2DInto(got, in, w, bias, Conv2DSpec{Stride: 1}, epi)
				j := &convJob{out: want.Data, in: in.Data, w: w.Data, spec: Conv2DSpec{Stride: 1}.check(), k: cin, npix: h * wd,
					bias: bias, epi: epi, staged: true, geo: convGeometry(want, in, w.Shape, bias, Conv2DSpec{Stride: 1}),
					kernel: (*convJob).band}
				j.shard(0, h*wd)
				if !bitsOrNaN(got.Data, want.Data) {
					t.Errorf("act=%d affine=%v bias=%v: in-place and staged reads differ", act, len(epi.Scale) > 0, bias != nil)
				}
			}
		}
	}
}

// TestKxKConvSaltedMatchesReference holds the staged K x K kernel to
// refConvBlocked (bitsOrNaN) on: K of every residue mod the K-quad — 27,
// 75 and 1600 among them, and K = 144, 150 and 1600, whose second K-block
// starts inside an (ic, ky) run; stride 1 and 2, padding 0–2 and Asym;
// Cout of 1, 2, 5 and 7; planes of 1–3 and of 255–257 output pixels; a
// bias or none and an epilogue or none; and inputs (whole pixels),
// weights (whole output rows), both or neither salted with ±0, NaN and
// ±Inf — the outputs of unsalted rows and of windows that miss every
// salted pixel stay finite however long K is, so an accumulation out of
// order shows — every call on scratch left poisoned with NaN, so a staged
// row that is read before it is written shows.
func TestKxKConvSaltedMatchesReference(t *testing.T) {
	onEachPath(t, testKxKConvSaltedMatchesReference)
}

func testKxKConvSaltedMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	specs := []Conv2DSpec{
		{Stride: 1}, {Stride: 1, Pad: 1}, {Stride: 1, Pad: 2}, {Stride: 2}, {Stride: 2, Pad: 1}, {Stride: 2, Pad: 2},
		{Stride: 1, PadH: 0, PadW: 2, Asym: true}, {Stride: 2, PadH: 2, PadW: 1, Asym: true},
	}
	outs := [][2]int{{1, 1}, {1, 2}, {1, 3}, {15, 17}, {16, 16}, {1, 257}}
	_, _, _, _, _, affine := bnEpilogue(7, 6)
	cases, residues := 0, [gemmMR]int{}
	for _, g := range []struct{ cin, kh, kw int }{
		{3, 3, 3}, {3, 5, 5}, {64, 5, 5}, {16, 3, 3}, {6, 5, 5}, // K = 27, 75, 1600, 144, 150
		{1, 3, 3}, {2, 3, 3}, {4, 3, 3}, {5, 3, 3}, {2, 1, 7}, {3, 7, 1}, // K = 9, 18, 36, 45, 14, 21
	} {
		k := g.cin * g.kh * g.kw
		residues[k%gemmMR]++
		for si, spec := range specs {
			spec = spec.check()
			for oi, o := range outs {
				h, wd := (o[0]-1)*spec.Stride+g.kh-2*spec.PadH, (o[1]-1)*spec.Stride+g.kw-2*spec.PadW
				if h < 1 || wd < 1 {
					continue
				}
				cout := []int{1, 2, 5, 7}[(si+oi)%4]
				in, w := randTensor(r, g.cin, h, wd), randTensor(r, cout, g.cin, g.kh, g.kw)
				switch cases % 4 {
				case 1:
					saltPixels(in)
				case 2:
					saltRows(w)
				case 3:
					saltPixels(in)
					saltRows(w)
				}
				var bias []float32
				epi := Epilogue{}
				if cases/4%2 == 0 {
					bias = randTensor(r, cout).Data
				}
				if cases/8%2 == 0 {
					epi = Epilogue{Scale: affine.Scale[:cout], Shift: affine.Shift[:cout], Act: ActReLU6}
				}
				want := refConvBlocked(in, w, bias, spec, epi)
				if want.Shape[1] != o[0] || want.Shape[2] != o[1] {
					t.Fatalf("K%d %+v: output %v, want %dx%d", k, spec, want.Shape, o[0], o[1])
				}
				got := dirty(want.Shape...)
				poisonBandScratch()
				Conv2DInto(got, in, w, bias, spec, epi)
				if !bitsOrNaN(got.Data, want.Data) {
					t.Errorf("K%d (%dx%dx%d) cout%d spec %+v out %dx%d bias=%v affine=%v: staged conv differs from the loop-nest reference",
						k, g.cin, g.kh, g.kw, cout, spec, o[0], o[1], bias != nil, len(epi.Scale) > 0)
				}
				cases++
			}
		}
	}
	if cases < 400 || residues[0] == 0 || residues[1] == 0 || residues[2] == 0 || residues[3] == 0 {
		t.Fatalf("sweep ran %d cases over K residues %v", cases, residues)
	}
}

// TestPointwiseConvPooledMatchesSerial shards the kernel both ways it
// cuts at two cores — by pixels, in chunks that end inside a band, and by
// channel pairs, on a 28x28 plane and on a 7x7 one with an odd Cout — and
// requires the pooled bits to be a single core's and the reference's.
func TestPointwiseConvPooledMatchesSerial(t *testing.T) {
	onEachPath(t, testPointwiseConvPooledMatchesSerial)
}

func testPointwiseConvPooledMatchesSerial(t *testing.T) {
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
		if npix*c.k*c.cout < parallelThresholdMACs || (npix < gemmBand*chunks) != c.byPairs {
			t.Fatalf("%s: %d MACs on %d pixels do not shard by pairs=%v", c.name, npix*c.k*c.cout, npix, c.byPairs)
		}
		if chunk := max((npix+chunks-1)/chunks, grainForMACs(c.k*c.cout)); !c.byPairs && chunk%gemmBand == 0 {
			t.Fatalf("%s: chunks of %d pixels end on a band edge", c.name, chunk)
		}
		if c.byPairs && max((pairs+chunks-1)/chunks, grainForMACs(2*c.k*npix)) >= pairs {
			t.Fatalf("%s: %d channel pairs make one chunk", c.name, pairs)
		}
		w := randTensor(r, c.cout, c.k, 1, 1)
		in := randTensor(r, c.k, c.h, c.wd)
		saltPixels(in)
		bias := randTensor(r, c.cout).Data
		_, _, _, _, _, epi := bnEpilogue(c.cout, 3)
		epi.Act = ActReLU6
		old := runtime.GOMAXPROCS(2)
		pooled := checkPointwise(t, c.name, in, w, bias, epi)
		runtime.GOMAXPROCS(1)
		serial := dirty(pooled.Shape...)
		Conv2DInto(serial, in, w, bias, Conv2DSpec{Stride: 1}, epi)
		runtime.GOMAXPROCS(old)
		if !bitsEqual(serial.Data, pooled.Data) {
			t.Errorf("%s: GOMAXPROCS 1 differs from pooled", c.name)
		}
	}
}

// onEachPath runs f once per pointwiseQuads body this CPU has: "vector"
// (pointwiseQuadsAVX2) where useAVX2 found one, then "go", the Go loop,
// with useAVX2 cleared.
func onEachPath(t *testing.T, f func(t *testing.T)) {
	vector := useAVX2
	for _, p := range []struct {
		name string
		on   bool
	}{{"vector", true}, {"go", false}} {
		if p.on && !vector {
			continue
		}
		t.Run(p.name, func(t *testing.T) {
			useAVX2 = p.on
			defer func() { useAVX2 = vector }()
			f(t)
		})
	}
}

// TestPointwiseQuadsVectorMatchesGo holds the vector body of
// pointwiseQuads to the Go loop, call by call: runs of 1–17 pixels (every
// residue of the eight-lane group, and the masked tail alone, after one
// group and after two) and of 255–257; 0–3 and 32 quads; rows at a stride
// of the run and at one past it; x cut to the exact length the last row
// needs, so a read past it panics on the Go side; and sentinels on both
// sides of o0 and o1 that neither path may touch. Unsalted inputs must
// give the same bits; inputs salted with ±0, NaN and ±Inf (x, and w0's
// weights), the same bits wherever either output is a number.
func TestPointwiseQuadsVectorMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("no vector body on this CPU")
	}
	defer func() { useAVX2 = true }()
	const guard = 9
	sentinel := math.Float32frombits(0x7fa5a5a5)
	r := rand.New(rand.NewSource(157))
	ns := []int{255, 256, 257}
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	cases := 0
	for _, n := range ns {
		for _, quads := range []int{0, 1, 2, 3, 32} {
			for _, stride := range []int{n, n + 1} {
				for _, salted := range []bool{false, true} {
					x := make([]float32, max(0, (gemmMR*quads-1)*stride+n))
					w0, w1 := make([]float32, gemmMR*quads), make([]float32, gemmMR*quads)
					for _, s := range [][]float32{x, w0, w1} {
						for i := range s {
							s[i] = r.Float32()*2 - 1
						}
					}
					if salted {
						for i := 0; i < len(x); i += 3 {
							x[i] = specials[i/3%len(specials)]
						}
						for i := 0; i < len(w0); i += 5 {
							w0[i] = specials[i/5%len(specials)]
						}
					}
					var out [2][2][]float32 // [path][row]: guard, run, guard
					for row := range 2 {
						init := make([]float32, n)
						for i := range init {
							init[i] = r.Float32()*2 - 1
						}
						for path := range 2 {
							b := make([]float32, n+2*guard)
							for i := range b {
								b[i] = sentinel
							}
							copy(b[guard:], init)
							out[path][row] = b
						}
					}
					for path, vector := range []bool{true, false} {
						useAVX2 = vector
						o := out[path]
						pointwiseQuads(o[0][guard:guard+n], o[1][guard:guard+n], x, stride, w0, w1)
					}
					useAVX2 = true
					name := fmt.Sprintf("n%d quads%d stride%d salted=%v", n, quads, stride, salted)
					for row := range 2 {
						v, g := out[0][row], out[1][row]
						for i := range guard {
							for _, e := range []float32{v[i], v[guard+n+i], g[i], g[guard+n+i]} {
								if math.Float32bits(e) != math.Float32bits(sentinel) {
									t.Fatalf("%s: row %d written outside its run", name, row)
								}
							}
						}
						if same := bitsEqual(v, g); !same && (!salted || !bitsOrNaN(v, g)) {
							t.Errorf("%s: row %d: the vector body differs from the Go loop", name, row)
						}
					}
					cases++
				}
			}
		}
	}
	if cases != len(ns)*5*2*2 {
		t.Fatalf("ran %d cases", cases)
	}
}
