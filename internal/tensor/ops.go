package tensor

import "math"

// FoldBatchNorm folds BN parameters into convolution weights and bias,
// returning the fused weights/bias. This is the arithmetic behind the
// conv+BN kernel-fusion optimization (Table II "Fusion" row): after
// folding, the BN op disappears from the graph.
//
// w is [Cout, ...]; bias may be nil (treated as zeros).
func FoldBatchNorm(w *Tensor, bias, gamma, beta, mean, variance []float32, eps float32) (*Tensor, []float32) {
	cout := w.Shape[0]
	if len(gamma) != cout || len(beta) != cout || len(mean) != cout || len(variance) != cout {
		panic("tensor: FoldBatchNorm parameter length mismatch")
	}
	fw := w.Clone()
	fb := make([]float32, cout)
	per := len(w.Data) / cout
	for oc := 0; oc < cout; oc++ {
		scale := gamma[oc] / float32(math.Sqrt(float64(variance[oc]+eps)))
		seg := fw.Data[oc*per : (oc+1)*per]
		for i := range seg {
			seg[i] *= scale
		}
		var b float32
		if bias != nil {
			b = bias[oc]
		}
		fb[oc] = (b-mean[oc])*scale + beta[oc]
	}
	return fw, fb
}
