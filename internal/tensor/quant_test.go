package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"edgebench/internal/stats"
)

func TestQuantizeRoundTripBound(t *testing.T) {
	r := stats.NewRNG(3)
	in := New(1000).Randomize(r, 10)
	q := QuantizeSymmetric(in)
	out := q.Dequantize()
	bound := float64(q.Scale) / 2 * 1.0001
	for i := range in.Data {
		if math.Abs(float64(in.Data[i]-out.Data[i])) > bound {
			t.Fatalf("elem %d error %v exceeds half-scale %v",
				i, in.Data[i]-out.Data[i], bound)
		}
	}
}

func TestQuantizeZeroTensor(t *testing.T) {
	q := QuantizeSymmetric(New(4))
	if q.Scale != 1 {
		t.Fatalf("zero tensor scale = %v, want 1", q.Scale)
	}
	for _, v := range q.Dequantize().Data {
		if v != 0 {
			t.Fatal("zero tensor should round-trip to zero")
		}
	}
}

func TestQuantizeSaturation(t *testing.T) {
	in := FromData([]float32{127, -127, 1}, 3)
	q := QuantizeSymmetric(in)
	if q.Data[0] != 127 || q.Data[1] != -127 {
		t.Fatalf("extremes = %v", q.Data)
	}
}

// TestQuantClampSymmetricRange pins the negative clip edge: the
// symmetric scheme's code range is [-127, 127] and no quantizer may
// emit -128 — the range's symmetry about the zero-point and the
// documented |code|*scale <= maxabs contract both depend on it. The adversarial
// inputs steer float rounding toward the -128 boundary.
func TestQuantClampSymmetricRange(t *testing.T) {
	if got := quantClamp(-127.5); got != -127 {
		t.Fatalf("quantClamp(-127.5) = %d, want -127", got)
	}
	if got := quantClamp(-1e9); got != -127 {
		t.Fatalf("quantClamp(-1e9) = %d, want -127", got)
	}
	if got := quantClamp(1e9); got != 127 {
		t.Fatalf("quantClamp(1e9) = %d, want 127", got)
	}
	adversarial := []float32{-1, -0.9999999, -127, -127.0001, -1e30, 1e-30, 0}
	in := FromData(adversarial, len(adversarial))
	for _, q := range []*QTensor{QuantizeSymmetric(in), QuantizePerChannel(FromData(adversarial, len(adversarial), 1))} {
		for i, v := range q.Data {
			if v == -128 {
				t.Fatalf("code -128 emitted at %d for input %g", i, adversarial[i])
			}
		}
	}
	dyn := make([]int8, len(adversarial))
	quantizeDynamic(dyn, adversarial)
	for i, v := range dyn {
		if v == -128 {
			t.Fatalf("dynamic code -128 emitted at %d for input %g", i, adversarial[i])
		}
	}
}

// Property: quantization error is bounded by half the scale for all inputs.
func TestQuantizePropertyBound(t *testing.T) {
	f := func(raw []float32) bool {
		xs := raw[:0:0]
		for _, v := range raw {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) && math.Abs(float64(v)) < 1e20 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		in := FromData(xs, len(xs))
		q := QuantizeSymmetric(in)
		out := q.Dequantize()
		for i := range xs {
			if math.Abs(float64(xs[i]-out.Data[i])) > float64(q.Scale)*0.51 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFP16ExactValues(t *testing.T) {
	cases := []float32{0, 1, -1, 0.5, 2, 1024, -0.25, 65504}
	for _, v := range cases {
		if got := fromFP16(toFP16(v)); got != v {
			t.Errorf("fp16 round trip of %v = %v", v, got)
		}
	}
}

func TestFP16Saturation(t *testing.T) {
	if got := fromFP16(toFP16(1e9)); got != 65504 {
		t.Fatalf("overflow should saturate to 65504, got %v", got)
	}
	if got := fromFP16(toFP16(-1e9)); got != -65504 {
		t.Fatalf("negative overflow = %v", got)
	}
}

func TestFP16NaN(t *testing.T) {
	nan := float32(math.NaN())
	if !math.IsNaN(float64(fromFP16(toFP16(nan)))) {
		t.Fatal("NaN should round-trip to NaN")
	}
}

func TestFP16Subnormals(t *testing.T) {
	// Smallest positive fp16 subnormal is 2^-24 ≈ 5.96e-8.
	small := float32(math.Ldexp(1, -24))
	if got := fromFP16(toFP16(small)); got != small {
		t.Fatalf("subnormal round trip = %v, want %v", got, small)
	}
	// Values below half the smallest subnormal flush to zero.
	tiny := float32(math.Ldexp(1, -26))
	if got := fromFP16(toFP16(tiny)); got != 0 {
		t.Fatalf("tiny value should flush to zero, got %v", got)
	}
}

// Property: fp16 relative error is within 2^-11 for normal-range values.
func TestFP16RelativeErrorProperty(t *testing.T) {
	f := func(raw float32) bool {
		v := raw
		a := math.Abs(float64(v))
		if math.IsNaN(a) || a < 1e-4 || a > 6e4 {
			return true
		}
		got := fromFP16(toFP16(v))
		rel := math.Abs(float64(got-v)) / a
		return rel <= math.Ldexp(1, -11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripFP16Tensor(t *testing.T) {
	r := stats.NewRNG(9)
	in := New(256).Randomize(r, 100)
	out := RoundTripFP16(in)
	for i := range in.Data {
		rel := math.Abs(float64(out.Data[i]-in.Data[i])) / math.Max(1e-6, math.Abs(float64(in.Data[i])))
		if rel > 1e-3 {
			t.Fatalf("fp16 tensor error too large at %d: %v vs %v", i, out.Data[i], in.Data[i])
		}
	}
	if in.Data[0] == out.Data[0] && in.Data[0] != fromFP16(toFP16(in.Data[0])) {
		t.Fatal("RoundTripFP16 must not mutate the input")
	}
}

func TestPruneMagnitude(t *testing.T) {
	in := FromData([]float32{0.1, -5, 0.2, 3, -0.05, 7, 0.3, -2}, 8)
	n := PruneMagnitude(in, 0.5)
	if n != 4 {
		t.Fatalf("pruned %d, want 4", n)
	}
	if Sparsity(in) != 0.5 {
		t.Fatalf("sparsity = %v, want 0.5", Sparsity(in))
	}
	// Largest magnitudes must survive.
	surviving := map[float32]bool{}
	for _, v := range in.Data {
		surviving[v] = true
	}
	for _, must := range []float32{-5, 3, 7, -2} {
		if !surviving[must] {
			t.Fatalf("large weight %v was pruned", must)
		}
	}
}

func TestPruneMagnitudeEdgeCases(t *testing.T) {
	in := FromData([]float32{1, 2}, 2)
	if PruneMagnitude(in, 0) != 0 {
		t.Fatal("zero fraction should prune nothing")
	}
	if PruneMagnitude(in.Clone(), 2) != 2 {
		t.Fatal("fraction > 1 should clamp and prune all")
	}
	if PruneMagnitude(New(1), 0.0001) != 0 {
		t.Fatal("sub-element fraction should prune nothing")
	}
}

// Property: pruning fraction f yields sparsity >= f (within one element).
func TestPruneSparsityProperty(t *testing.T) {
	r := stats.NewRNG(21)
	f := func(frac float64) bool {
		frac = math.Mod(math.Abs(frac), 1)
		in := New(64).Randomize(r, 1)
		PruneMagnitude(in, frac)
		return Sparsity(in) >= frac-1.0/64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKthSmallest(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for k := 1; k <= 5; k++ {
		cp := append([]float64(nil), xs...)
		if got := kthSmallest(cp, k); got != float64(k) {
			t.Fatalf("kthSmallest(%d) = %v", k, got)
		}
	}
}
