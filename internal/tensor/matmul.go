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

// matVecRange computes rows [lo, hi) of out = a x vec. Every row is one
// `sum += a[i][j]*x[j]` chain over j = 0..k-1, the order DenseInto's
// bits are defined by. A lone chain waits on its previous add every
// step, so four rows go at once, each on its own chain over the same
// x[j]: each row's operations and their order are exactly the one-row
// loop's, only the four chains' adds overlap in the pipeline. The
// (hi-lo) mod 4 tail rows go one at a time. Every product is rounded on
// its own (float32(...)), so no architecture fuses it into the add.
func matVecRange(out, a, x []float32, k, lo, hi int) {
	x = x[:k]
	i := lo
	for ; i+4 <= hi; i += 4 {
		r0 := a[i*k : (i+1)*k]
		r1 := a[(i+1)*k : (i+2)*k]
		r2 := a[(i+2)*k : (i+3)*k]
		r3 := a[(i+3)*k : (i+4)*k]
		var s0, s1, s2, s3 float32
		for j, xj := range x {
			s0 += float32(r0[j] * xj)
			s1 += float32(r1[j] * xj)
			s2 += float32(r2[j] * xj)
			s3 += float32(r3[j] * xj)
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < hi; i++ {
		row := a[i*k : (i+1)*k]
		var sum float32
		for j, v := range row {
			sum += float32(v * x[j])
		}
		out[i] = sum
	}
}
