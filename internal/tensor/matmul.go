package tensor

import "fmt"

// MatVec multiplies a [M, K] matrix by a length-K vector producing a
// length-M vector. Fully-connected layers in single-batch inference reduce
// to this shape, which is why the paper calls CNN compute "dominated by
// matrix-matrix and matrix-vector multiplications" (Table I footnote).
// Large matrices (VGG's 4096x25088 fc6) shard rows across goroutines.
func MatVec(a *Tensor, x []float32) []float32 {
	if len(a.Shape) != 2 || a.Shape[1] != len(x) {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch: %v x vec(%d)", a.Shape, len(x)))
	}
	m, k := a.Shape[0], a.Shape[1]
	out := make([]float32, m)
	matVecInto(out, a.Data, x, m, k)
	return out
}

// matVecInto computes out = a x vec for row-major a [m, k], overwriting
// all of out[0:m]. Rows are independent, so the parallel split is
// bitwise-equal to the serial order; large products shard rows across
// the persistent worker pool.
func matVecInto(out, a, x []float32, m, k int) {
	if m*k < parallelThresholdMACs {
		matVecRange(out, a, x, k, 0, m)
		return
	}
	parallelFor(m, grainForMACs(k), func(lo, hi int) {
		matVecRange(out, a, x, k, lo, hi)
	})
}

func matVecRange(out, a, x []float32, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := a[i*k : (i+1)*k]
		var sum float32
		for j, v := range row {
			sum += v * x[j]
		}
		out[i] = sum
	}
}
