package tensor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Both convolutions stage each band's im2col rows straight from their
// input with one function (stage): the FP32 kernel its rows,
// channel-major, from its input; the int8 one its pair rows, tap-major,
// from its pair-row code plane, a four-byte code pair at a time. These
// tests hold both datatypes' staging to the loop-nest references,
// refConvBlocked and refQConv, bit for bit, and the int8 staging to a
// naive read of its plane (pairRowRead), where it can go wrong: bands and
// vector groups that wrap an output row, windows in the padding on
// either side of a wrap, K-blocks that start inside an (ic, ky) run or a
// tap's channel pairs, odd channel counts, one-pixel planes, every chunk
// cut of a band, and FP32 specials next to the padding.

// stagingCases is the geometry table both datatypes run.
func stagingCases() []convCase {
	var cs []convCase
	// Output widths 9, 10 and 11 at stride 1 and 2, so groups of pixels
	// wrap rows in several phases.
	for _, wout := range []int{9, 10, 11} {
		cs = append(cs,
			convCase{fmt.Sprintf("wout%d-s1", wout), 5, 4, wout, 7, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
			convCase{fmt.Sprintf("wout%d-s2", wout), 5, 7, 2*wout - 1, 7, 3, 3, Conv2DSpec{Stride: 2, Pad: 1}})
	}
	// A wrapping group whose pixels sit in the right padding of one row
	// and the left padding of the next, and the transposed pads.
	for _, wd := range []int{7, 8} {
		cs = append(cs,
			convCase{fmt.Sprintf("asym-h0w1-wd%d", wd), 4, 5, wd, 6, 3, 3, Conv2DSpec{Stride: 1, PadH: 0, PadW: 1, Asym: true}},
			convCase{fmt.Sprintf("asym-h1w0-wd%d", wd), 4, 5, wd, 6, 3, 3, Conv2DSpec{Stride: 1, PadH: 1, PadW: 0, Asym: true}})
	}
	return append(cs,
		// K-blocks that start mid-run: K = 144 and 1600 under the staged
		// K-block of 128; K = 75 in one.
		convCase{"3x3-cin16-K144", 16, 6, 7, 9, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
		convCase{"5x5-cin3-K75", 3, 8, 9, 5, 5, 5, Conv2DSpec{Stride: 1, Pad: 2}},
		convCase{"5x5-cin64-K1600", 64, 15, 15, 10, 5, 5, Conv2DSpec{Stride: 1, Pad: 2}},
		// One-pixel planes: all padding but the centre, and all interior.
		convCase{"1px-padded", 3, 1, 1, 5, 3, 3, Conv2DSpec{Stride: 1, Pad: 1}},
		convCase{"1px-interior", 3, 3, 3, 5, 3, 3, Conv2DSpec{Stride: 1}},
	)
}

// TestStagingMatchesReferences runs every staging case through both
// convolutions, on random input.
func TestStagingMatchesReferences(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	for _, c := range stagingCases() {
		in := randTensor(r, c.cin, c.h, c.w)
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		bias := randTensor(r, c.cout).Data
		checkBandedConv(t, c.name, in, w, bias, c.spec, Epilogue{Act: ActReLU})
		qw := QuantizePerChannel(w)
		checkBandedQConv(t, c.name, in, qw, bias, c.spec, ActNone)
	}
}

// TestStagingPairRowsMatchPlane stages every staging case's int8 pair
// rows (stagedCodes), whole and cut at a pixel inside the first band, and
// requires them to equal a naive read of the pair-row plane, on both
// paths.
func TestStagingPairRowsMatchPlane(t *testing.T) {
	onEachPath(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(151))
		for _, c := range stagingCases() {
			spec := c.spec.check()
			hout, wout := spec.OutDims(c.h, c.w, c.kh, c.kw)
			geo := convGeom{cin: c.cin, h: c.h, wd: c.w, cout: c.cout, kh: c.kh, kw: c.kw, hout: hout, wout: wout}
			// An int8 job (qw set), whose rows stage tap-major.
			j := &convJob{geo: geo, spec: spec, k: (c.cin + 1) &^ 1 * c.kh * c.kw, npix: hout * wout, staged: true,
				qw: []int8{}, codes: pairRows(randQ(r, c.cin*c.h*c.w), c.cin, c.h*c.w)}
			want := pairRowRead(j.codes, geo, spec)
			for _, cut := range []int{0, j.npix / 3} {
				if got := stagedCodes(j, 0, cut, j.npix); !slices.Equal(got, want) {
					t.Errorf("%s cut at %d: the staged pair rows differ from the plane's", c.name, cut)
				}
			}
		}
	})
}

// TestStagingChunkCuts cuts a 66-pixel plane, 11 x 6 under a padded
// 3x3, at every even pixel, the two pieces computed as two shards would,
// and requires both datatypes' output to equal the loop-nest references
// whatever the cut: five input channels, so the int8 pair rows carry a
// pad channel.
func TestStagingChunkCuts(t *testing.T) {
	r := rand.New(rand.NewSource(139))
	const cin, h, wd, cout, npix = 5, 11, 6, 9, 66
	spec := Conv2DSpec{Stride: 1, Pad: 1}.check()
	in := randTensor(r, cin, h, wd)
	w := randTensor(r, cout, cin, 3, 3)
	bias := randTensor(r, cout).Data
	qw := QuantizePerChannel(w)
	want, wantQ := refConvBlocked(in, w, bias, spec, Epilogue{}), refQConv(in, qw, bias, spec, ActNone, 0)
	geo := convGeometry(want, in, w.Shape, bias, spec)
	if geo.hout*geo.wout != npix {
		t.Fatalf("plane has %d output pixels, want %d", geo.hout*geo.wout, npix)
	}
	codes := make([]int8, len(in.Data))
	sx := quantizeDynamicSerial(codes, in.Data)
	plane := pairRows(codes, cin, h*wd)
	scales := make([]float32, cout)
	for oc := range scales {
		scales[oc] = sx * qw.ScaleFor(oc)
	}
	for cut := 0; cut <= npix; cut += 2 {
		got := dirty(want.Shape...)
		j := &convJob{out: got.Data, in: in.Data, w: w.Data, geo: geo, spec: spec, k: cin * 9, npix: npix, bias: bias, staged: true,
			kernel: (*convJob).band}
		j.shard(0, cut)
		j.shard(cut, npix)
		assertBitEqual(t, got, want, fmt.Sprintf("FP32 cut at %d", cut))

		gotQ := dirty(want.Shape...)
		q := &convJob{out: gotQ.Data, acc: int32Rows(gotQ.Data), codes: plane, qw: ConvCodes(qw).Data, scales: scales, geo: geo,
			spec: spec, k: (cin + 1) &^ 1 * 9, npix: npix, bias: bias, staged: true, kernel: (*convJob).qband}
		q.shard(0, cut)
		q.shard(cut, npix)
		assertBitEqual(t, gotQ, wantQ, fmt.Sprintf("int8 cut at %d", cut))
	}
}

// TestStagingSpecialsNextToPadding salts the input's border rows and
// columns — the taps beside the padding — with ±0, NaN and ±Inf in turn,
// and requires the FP32 output to keep the reference's bits: a padding
// tap must meet the weights as +0.0, and a window wrapped into the
// padding that read the plane instead would carry a NaN or an Inf into a
// pixel the reference keeps finite.
func TestStagingSpecialsNextToPadding(t *testing.T) {
	r := rand.New(rand.NewSource(149))
	for _, c := range stagingCases() {
		in := randTensor(r, c.cin, c.h, c.w)
		salted := 0
		for i := range in.Data {
			if y, x := i/c.w%c.h, i%c.w; y == 0 || y == c.h-1 || x == 0 || x == c.w-1 {
				in.Data[i] = specials[salted%len(specials)]
				salted++
			}
		}
		w := randTensor(r, c.cout, c.cin, c.kh, c.kw)
		want := refConvBlocked(in, w, nil, c.spec, Epilogue{})
		got := dirty(want.Shape...)
		Conv2DInto(got, in, w, nil, c.spec, Epilogue{})
		assertBitEqual(t, got, want, c.name)
	}
}
