package tensor

import "math"

// QTensor is a symmetric INT8-quantized tensor: value ≈ scale * int8.
// This is the representation TFLite/EdgeTPU and TensorRT INT8 modes use
// for weights, and the format the executor's int8 kernels consume
// directly. Scale is the per-tensor scale; Scales, when non-nil, holds
// one scale per output channel (the tensor's first axis — TFLite's
// per-axis convolution-weight scheme) and takes precedence.
type QTensor struct {
	Shape  Shape
	Data   []int8
	Scale  float32
	Scales []float32
}

// ScaleFor returns the dequantization scale for output channel oc:
// the per-channel scale when present, the per-tensor scale otherwise.
func (q *QTensor) ScaleFor(oc int) float32 {
	if q.Scales != nil {
		return q.Scales[oc]
	}
	return q.Scale
}

// Clone returns a deep copy of q.
func (q *QTensor) Clone() *QTensor {
	if q == nil {
		return nil
	}
	return &QTensor{
		Shape:  q.Shape.Clone(),
		Data:   append([]int8(nil), q.Data...),
		Scale:  q.Scale,
		Scales: append([]float32(nil), q.Scales...),
	}
}

// quantClamp rounds v (already divided by the scale) to the nearest
// int8 code in [-127, 127]. The symmetric scheme never emits -128: the
// code range stays symmetric about the zero-point, so negating a tensor
// negates its codes, and |code| * scale never exceeds the calibrated
// maxabs, which -128 * (maxabs/127) would. Every quantizer in this
// package funnels through here; TestQuantClampSymmetricRange pins the
// edge.
func quantClamp(v float64) int8 {
	r := math.RoundToEven(v)
	if r > 127 {
		return 127
	}
	if r < -127 {
		return -127
	}
	return int8(r)
}

// symmetricScale returns maxAbs/127, substituting 1 for the degenerate
// all-zero case so dequantization never divides by zero.
func symmetricScale(maxAbs float32) float32 {
	scale := maxAbs / 127
	if scale == 0 {
		scale = 1
	}
	return scale
}

// QuantizeSymmetric quantizes t to INT8 with a per-tensor scale of
// maxabs/127. An all-zero tensor quantizes with scale 1 to avoid a
// degenerate zero scale.
func QuantizeSymmetric(t *Tensor) *QTensor {
	scale := symmetricScale(t.MaxAbs())
	q := &QTensor{Shape: t.Shape.Clone(), Data: make([]int8, len(t.Data)), Scale: scale}
	inv := 1 / float64(scale)
	for i, v := range t.Data {
		q.Data[i] = quantClamp(float64(v) * inv)
	}
	return q
}

// QuantizePerChannel quantizes a weight tensor to INT8 with one
// symmetric scale per output channel (the tensor's first axis),
// populating Scales. This is the weight format the per-channel int8
// execution path consumes.
func QuantizePerChannel(t *Tensor) *QTensor {
	cout := t.Shape[0]
	per := len(t.Data) / cout
	q := &QTensor{
		Shape:  t.Shape.Clone(),
		Data:   make([]int8, len(t.Data)),
		Scale:  1,
		Scales: make([]float32, cout),
	}
	for oc := 0; oc < cout; oc++ {
		seg := t.Data[oc*per : (oc+1)*per]
		scale := symmetricScale(maxAbs(seg))
		q.Scales[oc] = scale
		inv := 1 / float64(scale)
		dst := q.Data[oc*per : (oc+1)*per]
		for i, v := range seg {
			dst[i] = quantClamp(float64(v) * inv)
		}
	}
	return q
}

const (
	// quantParallelElems is the activation length from which the
	// quantizer shards: below it the two pool hand-offs cost more than
	// the second core saves.
	quantParallelElems = 1 << 15
	// quantChunk is the unit the sharded quantizer hands out, and the
	// span one per-chunk maximum covers: 32 KB of float32, so a chunk's
	// max-abs pass and its rounding pass each stream from L1.
	quantChunk = 1 << 13
)

// quantJob is the activation a sharded quantizer is working on.
type quantJob struct {
	dst   []int16
	src   []float32
	plane int
	pairs bool
	inv   float32
}

// absScale returns src's per-tensor symmetric scale, the int8 path's
// runtime activation quantization step before quantizeRound. Long inputs
// are sharded, the per-chunk maxima held in s: max-abs is exact in any order.
func (s *qscratch) absScale(src []float32) float32 {
	if len(src) < quantParallelElems {
		return symmetricScale(maxAbs(src))
	}
	s.maxima = growSlice(s.maxima, (len(src)+quantChunk-1)/quantChunk)
	s.quant.src = src
	parallelFor(len(s.maxima), 1, s.maxFn)
	s.quant.src = nil
	return symmetricScale(maxAbs(s.maxima))
}

// quantizeRound writes the int8 code of every element of src, [C, plane],
// at inv into dst as int16: in src's layout, or, with pairs, as pair rows,
// channels 2i and 2i+1 of position p as the int16 pair at dst[2i*plane +
// 2p] (a last odd channel's partner is not written). No allocation,
// float32 rounding. Long inputs are sharded; each code is the same
// wherever the split falls.
func (s *qscratch) quantizeRound(dst []int16, src []float32, plane int, pairs bool, inv float32) {
	s.quant = quantJob{dst: dst, src: src, plane: plane, pairs: pairs, inv: inv}
	if chunks := (len(src) + quantChunk - 1) / quantChunk; len(src) < quantParallelElems {
		s.quantRoundChunks(0, chunks)
	} else {
		parallelFor(chunks, 1, s.roundFn)
	}
	s.quant = quantJob{}
}

// quantMaxChunks stores the max-abs of chunks [lo, hi) of the source.
func (s *qscratch) quantMaxChunks(lo, hi int) {
	src := s.quant.src
	for c := lo; c < hi; c++ {
		s.maxima[c] = maxAbs(src[c*quantChunk : min((c+1)*quantChunk, len(src))])
	}
}

// quantRoundChunks rounds chunks [lo, hi) of the source into dst; as pair
// rows, a run of one channel at a time.
func (s *qscratch) quantRoundChunks(lo, hi int) {
	q := &s.quant
	lo, hi = lo*quantChunk, min(hi*quantChunk, len(q.src))
	if !q.pairs {
		dst := q.dst[lo:hi]
		for i, v := range q.src[lo:hi] {
			dst[i] = int16(quantCode(v, q.inv))
		}
		return
	}
	for i := lo; i < hi; {
		c, p := i/q.plane, i%q.plane
		n := min(hi-i, q.plane-p)
		dst := q.dst[(c&^1)*q.plane+2*p+c&1:]
		for t, v := range q.src[i : i+n] {
			dst[2*t] = int16(quantCode(v, q.inv))
		}
		i += n
	}
}

// maxAbs returns the largest magnitude in src; a NaN never wins. With
// the sign bit cleared, non-negative floats order as their bit patterns
// do and every NaN sits above +Inf's, so the reduction is an unsigned
// max over patterns with the NaNs zeroed — exact, and free of the two
// float compares that mispredict on sign-random activations.
func maxAbs(src []float32) float32 {
	var m uint32
	for _, v := range src {
		b := math.Float32bits(v) &^ (1 << 31)
		if b > posInfBits {
			b = 0
		}
		m = max(m, b)
	}
	return math.Float32frombits(m)
}

// quantCode is the activation quantizer's code for v at inv = 1/scale:
// v*inv rounded half away from zero (cheaper than RoundToEven, which only
// exact .5 ties tell apart) and clamped to [-127, 127]. The half takes r's
// sign bit, not a branch on r >= 0 that mispredicts on sign-random input.
// v*inv is rounded before the half is added (float32(...)), so no
// architecture fuses the two.
func quantCode(v, inv float32) int8 {
	r := float32(v * inv)
	half := math.Float32frombits(0x3f000000 | math.Float32bits(r)&(1<<31))
	return int8(max(-127, min(127, int32(r+half))))
}

// Dequantize reconstructs a float32 tensor from q, honouring per-channel
// scales when present.
func (q *QTensor) Dequantize() *Tensor {
	t := &Tensor{Shape: q.Shape.Clone(), Data: make([]float32, len(q.Data))}
	if q.Scales != nil {
		cout := q.Shape[0]
		per := len(q.Data) / cout
		for oc := 0; oc < cout; oc++ {
			s := q.Scales[oc]
			src := q.Data[oc*per : (oc+1)*per]
			dst := t.Data[oc*per : (oc+1)*per]
			for i, v := range src {
				dst[i] = float32(v) * s
			}
		}
		return t
	}
	for i, v := range q.Data {
		t.Data[i] = float32(v) * q.Scale
	}
	return t
}

// RoundTripFP16 converts every element to IEEE-754 binary16 and back,
// emulating half-precision inference error. Values beyond the FP16 range
// saturate to ±65504 (no infinities), matching accelerator behaviour.
func RoundTripFP16(t *Tensor) *Tensor {
	out := t.Clone()
	for i, v := range out.Data {
		out.Data[i] = fromFP16(toFP16(v))
	}
	return out
}

// toFP16 converts a float32 to binary16 bits with round-to-nearest-even
// and saturation.
func toFP16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23&0xff) - 127 + 15
	mant := b & 0x7fffff

	switch {
	case exp >= 0x1f: // overflow or inf/NaN
		if b&0x7fffffff > 0x7f800000 { // NaN
			return sign | 0x7e00
		}
		return sign | 0x7bff // saturate to 65504
	case exp <= 0: // subnormal or underflow
		if exp < -10 {
			return sign // flush to zero
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rounded := (mant + half) >> shift
		// round-to-nearest-even on ties
		if mant&((half<<1)-1) == half && rounded&1 == 1 {
			rounded--
		}
		return sign | uint16(rounded)
	default:
		rounded := mant + 0xfff + (mant>>13)&1
		if rounded&0x800000 != 0 { // mantissa overflowed into exponent
			rounded = 0
			exp++
			if exp >= 0x1f {
				return sign | 0x7bff
			}
		}
		return sign | uint16(exp)<<10 | uint16(rounded>>13)
	}
}

// fromFP16 converts binary16 bits to float32.
func fromFP16(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0x7f800000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

// PruneMagnitude zeroes the fraction of elements with the smallest
// absolute values (global magnitude pruning) in place and returns the
// count of zeroed elements. fraction is clamped to [0, 1].
func PruneMagnitude(t *Tensor, fraction float64) int {
	if fraction <= 0 || len(t.Data) == 0 {
		return 0
	}
	if fraction > 1 {
		fraction = 1
	}
	k := int(fraction * float64(len(t.Data)))
	if k == 0 {
		return 0
	}
	// Find the k-th smallest |value| via a copied sort of magnitudes.
	mags := make([]float64, len(t.Data))
	for i, v := range t.Data {
		mags[i] = math.Abs(float64(v))
	}
	threshold := kthSmallest(mags, k)
	zeroed := 0
	for i, v := range t.Data {
		if zeroed >= k {
			break
		}
		if math.Abs(float64(v)) <= threshold {
			t.Data[i] = 0
			zeroed++
		}
	}
	return zeroed
}

// Sparsity returns the fraction of exactly-zero elements in t.
func Sparsity(t *Tensor) float64 {
	if len(t.Data) == 0 {
		return 0
	}
	zeros := 0
	for _, v := range t.Data {
		if v == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(len(t.Data))
}

// kthSmallest returns the k-th smallest value (1-based) using quickselect.
func kthSmallest(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	k-- // 0-based target index
	for lo < hi {
		// Hoare partition: [lo..p] <= pivot <= [p+1..hi].
		p := partition(xs, lo, hi)
		if k <= p {
			hi = p
		} else {
			lo = p + 1
		}
	}
	return xs[k]
}

func partition(xs []float64, lo, hi int) int {
	pivot := xs[(lo+hi)/2]
	i, j := lo, hi
	for {
		for xs[i] < pivot {
			i++
		}
		for xs[j] > pivot {
			j--
		}
		if i >= j {
			return j
		}
		xs[i], xs[j] = xs[j], xs[i]
		i++
		j--
	}
}
