package tensor

import (
	"math"
	"testing"

	"edgebench/internal/stats"
)

func TestLSTMCellStepZeroWeights(t *testing.T) {
	// All-zero weights: gates are sigma(0)=0.5 and tanh(0)=0, so the
	// cell halves each step and the hidden output is o*tanh(c).
	hidden, features := 3, 2
	w := New(4*hidden, features+hidden)
	x := []float32{1, -1}
	h := make([]float32, hidden)
	c := []float32{1, 0, -1}
	hN, cN := lstmCellStep(w, nil, x, h, c)
	for j := 0; j < hidden; j++ {
		wantC := 0.5 * c[j]
		if !almostEq32(cN[j], wantC, 1e-6) {
			t.Fatalf("c[%d] = %v, want %v", j, cN[j], wantC)
		}
		wantH := 0.5 * tanh32(wantC)
		if !almostEq32(hN[j], wantH, 1e-6) {
			t.Fatalf("h[%d] = %v, want %v", j, hN[j], wantH)
		}
	}
}

func TestLSTMForgetGateSaturation(t *testing.T) {
	// Drive the forget gate hard open via bias: the cell state must be
	// preserved (plus the input-gate contribution).
	w := New(4, 1+1)                    // hidden=1, features=1
	bias := []float32{-30, +30, 0, -30} // i closed, f open, o closed
	c := []float32{0.8}
	_, cN := lstmCellStep(w, bias, []float32{0.5}, []float32{0}, c)
	if !almostEq32(cN[0], 0.8, 1e-4) {
		t.Fatalf("open forget gate should carry the cell: %v", cN[0])
	}
	// And with the forget gate slammed shut the cell resets.
	bias[1] = -30
	_, cN = lstmCellStep(w, bias, []float32{0.5}, []float32{0}, c)
	if math.Abs(float64(cN[0])) > 1e-4 {
		t.Fatalf("closed forget gate should clear the cell: %v", cN[0])
	}
}

func TestLSTMSequence(t *testing.T) {
	r := stats.NewRNG(9)
	w := New(4*8, 5+8).Randomize(r, 0.5)
	bias := make([]float32, 32)
	seq := New(10, 5).Randomize(r, 1)
	h := LSTM(w, bias, seq)
	if len(h) != 8 {
		t.Fatalf("hidden size = %d", len(h))
	}
	for _, v := range h {
		if v < -1 || v > 1 {
			t.Fatalf("hidden state %v outside tanh range", v)
		}
	}
	// Manual unroll must agree.
	hm := make([]float32, 8)
	cm := make([]float32, 8)
	for step := 0; step < 10; step++ {
		hm, cm = lstmCellStep(w, bias, seq.Data[step*5:(step+1)*5], hm, cm)
	}
	for i := range h {
		if h[i] != hm[i] {
			t.Fatal("LSTM disagrees with manual unroll")
		}
	}
}

func TestLSTMOrderSensitivity(t *testing.T) {
	// A recurrent model must distinguish sequence orderings (unlike any
	// pooling reduction).
	r := stats.NewRNG(11)
	w := New(4*4, 3+4).Randomize(r, 1)
	seq := New(6, 3).Randomize(r, 1)
	rev := seq.Clone()
	for step := 0; step < 3; step++ {
		for f := 0; f < 3; f++ {
			rev.Data[step*3+f], rev.Data[(5-step)*3+f] =
				rev.Data[(5-step)*3+f], rev.Data[step*3+f]
		}
	}
	a := LSTM(w, nil, seq)
	b := LSTM(w, nil, rev)
	same := true
	for i := range a {
		if !almostEq32(a[i], b[i], 1e-6) {
			same = false
		}
	}
	if same {
		t.Fatal("LSTM output should depend on sequence order")
	}
}

func TestLSTMPanics(t *testing.T) {
	w := New(8, 5) // 4H=8 -> H=2, F+H must be 5 -> F=3
	for _, tc := range []func(){
		func() { lstmCellStep(w, nil, []float32{1, 2}, []float32{0, 0}, []float32{0, 0}) }, // F mismatch
		func() { lstmCellStep(w, []float32{1}, []float32{1, 2, 3}, []float32{0, 0}, []float32{0, 0}) },
		func() { lstmCellStep(w, nil, []float32{1, 2, 3}, []float32{0, 0}, []float32{0}) },
		func() { LSTM(w, nil, New(2, 3, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			tc()
		}()
	}
}

func TestActivationHelpers(t *testing.T) {
	if !almostEq32(sigmoid32(0), 0.5, 1e-6) || !almostEq32(tanh32(0), 0, 1e-9) {
		t.Fatal("activation helpers wrong at 0")
	}
	if tanh32(25) != 1 || tanh32(-25) != -1 {
		t.Fatal("tanh saturation wrong")
	}
	if !almostEq32(sigmoid32(2), float32(1/(1+math.Exp(-2))), 1e-6) {
		t.Fatal("sigmoid value wrong")
	}
}
