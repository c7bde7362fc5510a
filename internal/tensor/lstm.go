package tensor

import (
	"fmt"
	"math"
)

// lstmCellStep advances one LSTM time step. Weights follow the packed
// [4H, F+H] layout (gate order: input, forget, cell, output), operating
// on the concatenated [x_t ; h_{t-1}] vector; bias is length 4H. It
// returns the new hidden and cell states.
//
// This is the recurrent building block of the paper's declared future
// work (§II: "we plan to extend our models to include more varieties of
// DNN models, such as RNNs and LSTMs").
func lstmCellStep(w *Tensor, bias, x, h, c []float32) (hNext, cNext []float32) {
	hidden := len(h)
	features := len(x)
	if len(w.Shape) != 2 || w.Shape[0] != 4*hidden || w.Shape[1] != features+hidden {
		panic(fmt.Sprintf("tensor: LSTM weights %v incompatible with x(%d) h(%d)",
			w.Shape, features, hidden))
	}
	if bias != nil && len(bias) != 4*hidden {
		panic("tensor: LSTM bias length mismatch")
	}
	if len(c) != hidden {
		panic("tensor: LSTM cell-state length mismatch")
	}
	// gates = W * [x; h] + b
	xh := make([]float32, features+hidden)
	copy(xh, x)
	copy(xh[features:], h)
	gates := MatVec(w, xh)
	if bias != nil {
		for i := range gates {
			gates[i] += bias[i]
		}
	}
	hNext = make([]float32, hidden)
	cNext = make([]float32, hidden)
	for j := 0; j < hidden; j++ {
		i := sigmoid32(gates[j])
		f := sigmoid32(gates[hidden+j])
		g := tanh32(gates[2*hidden+j])
		o := sigmoid32(gates[3*hidden+j])
		cNext[j] = float32(f*c[j]) + float32(i*g)
		hNext[j] = o * tanh32(cNext[j])
	}
	return hNext, cNext
}

// LSTM runs a full sequence [T, F] through an LSTM with the given packed
// weights and returns the final hidden state (the classification
// convention) starting from zero states.
func LSTM(w *Tensor, bias []float32, seq *Tensor) []float32 {
	if len(seq.Shape) != 2 {
		panic(fmt.Sprintf("tensor: LSTM input must be [T, F], got %v", seq.Shape))
	}
	steps, features := seq.Shape[0], seq.Shape[1]
	hidden := w.Shape[0] / 4
	h := make([]float32, hidden)
	c := make([]float32, hidden)
	for t := 0; t < steps; t++ {
		x := seq.Data[t*features : (t+1)*features]
		h, c = lstmCellStep(w, bias, x, h, c)
	}
	return h
}

func sigmoid32(x float32) float32 {
	// Stable logistic via tanh: sigma(x) = (tanh(x/2)+1)/2.
	return (tanh32(x/2) + 1) / 2
}

func tanh32(x float32) float32 {
	switch {
	case x > 20:
		return 1
	case x < -20:
		return -1
	}
	// tanh via exp identity with float64 core for accuracy.
	e := exp64(2 * float64(x))
	return float32((e - 1) / (e + 1))
}

// exp64 is a thin alias kept local so the hot loop stays inlinable.
func exp64(x float64) float64 { return math.Exp(x) }
