package tensor

import (
	"fmt"
	"math"
	"sync"
)

// This file is the int8 execution path for convolution and dense layers:
// dynamic per-tensor activation quantization, an int8 im2col, the QGEMM
// int32 accumulation, and a fused requantize+bias+activation epilogue,
// so a quantized Conv/Dense is a single kernel call producing float32.
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
	cols   []int8    // int8 im2col matrix
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

// im2colQInto is the int8 twin of im2colInto: it lowers the quantized
// input qin (layout [Cin, H, W]) into cols as a [Cin*KH*KW, Hout*Wout]
// int8 matrix, writing padding positions as explicit zeros (the int8
// zero-point of the symmetric scheme).
func im2colQInto(cols []int8, qin []int8, cin, h, wd, kh, kw int, spec Conv2DSpec, hout, wout int) {
	padH, padW := spec.padHW()
	ncols := hout * wout
	row := 0
	for ic := 0; ic < cin; ic++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				dst := cols[row*ncols : (row+1)*ncols]
				col := 0
				for oy := 0; oy < hout; oy++ {
					iy := oy*spec.Stride + ky - padH
					if iy < 0 || iy >= h {
						clear(dst[col : col+wout])
						col += wout
						continue
					}
					src := qin[(ic*h+iy)*wd : (ic*h+iy+1)*wd]
					for ox := 0; ox < wout; ox++ {
						ix := ox*spec.Stride + kx - padW
						if ix >= 0 && ix < wd {
							dst[col] = src[ix]
						} else {
							dst[col] = 0
						}
						col++
					}
				}
				row++
			}
		}
	}
}

// requantizeInto is the fused epilogue: dst = act(acc*scale + bias),
// where scale combines the activation scale and the (possibly
// per-channel) weight scale. seg runs over one output channel's plane.
func requantizeInto(dst []float32, acc []int32, scale float32, bias float32, act Act, alpha float32) {
	switch act {
	case ActNone:
		for i, v := range acc {
			dst[i] = float32(v)*scale + bias
		}
	case ActReLU, ActReLU6:
		hi := clampHi(act)
		for i, v := range acc {
			dst[i] = clamp(float32(v)*scale+bias, hi)
		}
	case ActLeakyReLU:
		for i, v := range acc {
			x := float32(v)*scale + bias
			if x < 0 {
				x *= alpha
			}
			dst[i] = x
		}
	case ActSigmoid:
		for i, v := range acc {
			x := float32(v)*scale + bias
			dst[i] = float32(1 / (1 + math.Exp(-float64(x))))
		}
	case ActTanh:
		for i, v := range acc {
			x := float32(v)*scale + bias
			dst[i] = float32(math.Tanh(float64(x)))
		}
	default:
		panic(fmt.Sprintf("tensor: unknown epilogue activation %d", act))
	}
}

// Conv2DQInt8Into computes a 2-D convolution with int8-quantized weights
// into a preallocated float32 dst of shape [Cout, Hout, Wout],
// overwriting every element. The input is quantized dynamically
// (per-tensor symmetric), lowered with the int8 im2col, multiplied with
// the blocked int8 GEMM into int32 accumulators, and requantized through
// the fused bias+activation epilogue — one kernel call end to end.
func Conv2DQInt8Into(dst, in *Tensor, qw *QTensor, bias []float32, spec Conv2DSpec, act Act, alpha float32) {
	spec = spec.check()
	cin, h, wd := in.Shape[0], in.Shape[1], in.Shape[2]
	cout, wcin, kh, kw := qw.Shape[0], qw.Shape[1], qw.Shape[2], qw.Shape[3]
	if cin != wcin {
		panic(fmt.Sprintf("tensor: Conv2DQInt8 channel mismatch: input %v weights %v", in.Shape, qw.Shape))
	}
	if bias != nil && len(bias) != cout {
		panic("tensor: Conv2DQInt8 bias length mismatch")
	}
	hout, wout := spec.OutDims(h, wd, kh, kw)
	checkConvDst(dst, cout, hout, wout)

	rows := cin * kh * kw
	ncols := hout * wout
	s := qscratchPool.Get().(*qscratch)
	s.grow(len(in.Data), rows*ncols, cout*ncols)

	sx := QuantizeDynamicInto(s.qin, in.Data)
	im2colQInto(s.cols, s.qin, cin, h, wd, kh, kw, spec, hout, wout)
	QGEMM(s.acc, qw.Data, s.cols, cout, rows, ncols)

	for oc := 0; oc < cout; oc++ {
		var b float32
		if bias != nil {
			b = bias[oc]
		}
		requantizeInto(dst.Data[oc*ncols:(oc+1)*ncols], s.acc[oc*ncols:(oc+1)*ncols],
			sx*qw.ScaleFor(oc), b, act, alpha)
	}
	qscratchPool.Put(s)
}

// DenseQInt8Into computes dst = act(wq*x + bias) for an int8-quantized
// [Out, In] weight matrix, overwriting all of dst (length Out). The
// input vector is quantized dynamically; each row is an int8 dot
// product accumulated in int32 and requantized in the epilogue.
func DenseQInt8Into(dst []float32, qw *QTensor, bias, x []float32, act Act, alpha float32) {
	if len(qw.Shape) != 2 || qw.Shape[1] != len(x) {
		panic(fmt.Sprintf("tensor: DenseQInt8 shape mismatch: %v x vec(%d)", qw.Shape, len(x)))
	}
	m, k := qw.Shape[0], qw.Shape[1]
	if len(dst) != m {
		panic("tensor: DenseQInt8 dst length mismatch")
	}
	if bias != nil && len(bias) != m {
		panic("tensor: DenseQInt8 bias length mismatch")
	}
	s := qscratchPool.Get().(*qscratch)
	s.grow(k, 0, m)
	sx := QuantizeDynamicInto(s.qin, x)
	qMatVecInto(s.acc, qw.Data, s.qin, m, k)
	for i := range dst {
		var b float32
		if bias != nil {
			b = bias[i]
		}
		requantizeInto(dst[i:i+1], s.acc[i:i+1], sx*qw.ScaleFor(i), b, act, alpha)
	}
	qscratchPool.Put(s)
}

// qMatVecInto computes dst = w*x for a row-major int8 [m, k] matrix and
// int8 vector, accumulating in int32 with a four-way unrolled dot.
func qMatVecInto(dst []int32, w, x []int8, m, k int) {
	k4 := k &^ 3
	for i := 0; i < m; i++ {
		row := w[i*k : i*k+k]
		var s0, s1, s2, s3 int32
		for j := 0; j < k4; j += 4 {
			s0 += int32(row[j]) * int32(x[j])
			s1 += int32(row[j+1]) * int32(x[j+1])
			s2 += int32(row[j+2]) * int32(x[j+2])
			s3 += int32(row[j+3]) * int32(x[j+3])
		}
		s := s0 + s1 + s2 + s3
		for j := k4; j < k; j++ {
			s += int32(row[j]) * int32(x[j])
		}
		dst[i] = s
	}
}
