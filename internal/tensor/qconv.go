package tensor

import "sync"

// This file holds what the int8 execution path shares: the fusable
// activation set and the pooled per-call scratch of Conv2DQInto (qgemm.go)
// — dynamic per-tensor activation quantization, the whole input rounded
// once into pair rows, then the channel-major product on the codes — so
// a quantized conv (a dense layer is the 1x1 conv the graph runs it as)
// is a single kernel call producing float32.
//
// Accumulator safety: a VPMADDWD pair sum is at most 2*127*127 = 32258 in
// magnitude, inside its int32 lane, and the reduction length (Cin*KH*KW
// for convs, In for dense) tops out around 25088 in the zoo (VGG16 fc1),
// so |acc| <= 127*127*25088 ≈ 4.0e8, comfortably inside int32.

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

// qscratch holds what one int8 kernel call owns: the conv's input codes,
// which every shard reads, and the requantize scales. Per-shard buffers
// are the convolution's (convScratch). Pooled, so executor replicas never
// share it.
type qscratch struct {
	codes  []int16   // the conv's quantized input activations, as pair rows for every geometry
	scales []float32 // requantize scales, activation scale x weight scale, per channel
}

var qscratchPool = sync.Pool{New: func() any { return new(qscratch) }}

// growSlice returns buf resized to n elements, reallocating only when
// its capacity is short; the contents are unspecified.
func growSlice[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
