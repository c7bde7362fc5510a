package tensor

import (
	"math"
	"testing"

	"edgebench/internal/stats"
)

func TestPerChannelQuantBound(t *testing.T) {
	r := stats.NewRNG(17)
	// Channels with wildly different magnitudes — the case per-channel
	// scales exist for.
	w := New(4, 3, 3, 3)
	for oc := 0; oc < 4; oc++ {
		mag := float32(math.Pow(10, float64(oc)-2)) // 0.01 .. 10
		seg := w.Data[oc*27 : (oc+1)*27]
		for i := range seg {
			seg[i] = (r.Float32()*2 - 1) * mag
		}
	}
	q := QuantizePerChannel(w)
	out, scales := q.Dequantize(), q.Scales
	if len(scales) != 4 {
		t.Fatalf("scales = %d", len(scales))
	}
	for oc := 0; oc < 4; oc++ {
		bound := float64(scales[oc]) * 0.51
		for i := oc * 27; i < (oc+1)*27; i++ {
			if math.Abs(float64(w.Data[i]-out.Data[i])) > bound {
				t.Fatalf("channel %d error exceeds half-scale", oc)
			}
		}
	}
	// Per-channel must beat per-tensor on this tensor by a wide margin.
	perTensor := QuantizeSymmetric(w).Dequantize()
	var errPC, errPT float64
	for i := range w.Data {
		errPC += math.Abs(float64(w.Data[i] - out.Data[i]))
		errPT += math.Abs(float64(w.Data[i] - perTensor.Data[i]))
	}
	if errPC*2 > errPT {
		t.Fatalf("per-channel error %.4g should be well below per-tensor %.4g", errPC, errPT)
	}
}

func TestPerChannelZeroChannel(t *testing.T) {
	w := New(2, 4) // channel 0 zero, channel 1 ones
	for i := 4; i < 8; i++ {
		w.Data[i] = 1
	}
	q := QuantizePerChannel(w)
	out, scales := q.Dequantize(), q.Scales
	if scales[0] != 1 {
		t.Fatalf("zero channel scale = %v, want 1", scales[0])
	}
	for i := 0; i < 4; i++ {
		if out.Data[i] != 0 {
			t.Fatal("zero channel should round-trip to zero")
		}
	}
	for i := 4; i < 8; i++ {
		if out.Data[i] != 1 {
			t.Fatal("unit channel should round-trip exactly")
		}
	}
}
