package tensor

import "sync"

// This file holds what the int8 execution path shares — the fusable
// activation set and the pooled per-call scratch — and its unpacked entry
// points, which pack the quantized weights per call and run the kernels
// in qprepack.go: dynamic per-tensor activation quantization, an int8
// im2row, the QGEMM int32 accumulation, and a fused
// requantize+bias+activation epilogue, so a quantized Conv/Dense is a
// single kernel call producing float32.
//
// Accumulator safety: products are at most 127*127 and the reduction
// length (Cin*KH*KW for convs, In for dense) tops out around 25088 in
// the zoo (VGG16 fc1), so |acc| <= 127*127*25088 ≈ 4.0e8, comfortably
// inside int32.

// Act selects the activation fused into a quantized kernel's epilogue.
// It mirrors the graph's fusable activation set without importing it
// (tensor is the bottom of the dependency stack).
type Act uint8

// Fusable epilogue activations.
const (
	ActNone Act = iota
	ActReLU
	ActReLU6
	ActLeakyReLU
	ActSigmoid
	ActTanh
)

// qscratch holds the per-call scratch of the int8 path. Pooled through
// a sync.Pool so concurrent executor replicas never share or reallocate
// buffers.
//
// It also carries the arguments of the passes the prepacked path shards
// (quant, conv) and their shard bodies as functions bound once, when
// the scratch is made: a closure built per call would be one heap
// allocation per parallelFor, several per convolution.
type qscratch struct {
	qin    []int8    // quantized input activations
	cols   []int8    // int8 im2row matrix
	acc    []int32   // GEMM accumulators
	scales []float32 // requantize scales, activation scale x weight scale, per channel
	maxima []float32 // per-chunk max-abs of the activation being quantized

	quant quantJob
	conv  qconvJob

	maxFn, roundFn, convFn func(lo, hi int)
}

var qscratchPool = sync.Pool{New: func() any {
	s := new(qscratch)
	s.maxFn, s.roundFn, s.convFn = s.quantMaxChunks, s.quantRoundChunks, s.convBand
	return s
}}

func (s *qscratch) grow(nqin, ncols, nacc int) {
	s.qin = growSlice(s.qin, nqin)
	s.cols = growSlice(s.cols, ncols)
	s.acc = growSlice(s.acc, nacc)
}

// growSlice returns buf resized to n elements, reallocating only when
// its capacity is short; the contents are unspecified.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Conv2DQInt8Into is Conv2DQPrepackedInto on weights nobody packed ahead
// of time: it packs qw's codes into panels borrowed from a pool, then
// runs that kernel on them — bit-identical, since integer accumulation is
// exact.
func Conv2DQInt8Into(dst, in *Tensor, qw *QTensor, bias []float32, spec Conv2DSpec, act Act, alpha float32) {
	s := packScratchPool.Get().(*packScratch)
	s.pq.packWeights(qw)
	Conv2DQPrepackedInto(dst, in, &s.pq, qw, bias, spec, act, alpha)
	packScratchPool.Put(s)
}

// DenseQInt8Into is DenseQPrepackedInto on weights nobody packed ahead of
// time, packed per call as in Conv2DQInt8Into.
func DenseQInt8Into(dst []float32, qw *QTensor, bias, x []float32, act Act, alpha float32) {
	s := packScratchPool.Get().(*packScratch)
	s.pq.packWeights(qw)
	DenseQPrepackedInto(dst, &s.pq, qw, bias, x, act, alpha)
	packScratchPool.Put(s)
}
