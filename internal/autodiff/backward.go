package autodiff

import (
	"fmt"
	"math"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// backward computes the gradients of one node: it returns dLoss/dInput
// per graph input (nil when an input gets no gradient) and accumulates
// parameter gradients into out.
func backward(n *graph.Node, values map[*graph.Node]*tensor.Tensor, dOut *tensor.Tensor, out *Gradients) ([]*tensor.Tensor, error) {
	in := func(i int) *tensor.Tensor { return values[n.Inputs[i]] }
	self := values[n]

	switch n.Kind {
	case graph.OpConv2D:
		return convBackward(n, in(0), dOut, out)
	case graph.OpDepthwiseConv2D:
		return dwConvBackward(n, in(0), dOut, out)
	case graph.OpDense:
		x := in(0)
		dW := tensor.New(n.WShape...)
		dx := tensor.New(x.Shape...)
		outN, inN := n.WShape[0], n.WShape[1]
		for o := 0; o < outN; o++ {
			g := dOut.Data[o]
			wRow := n.Weights.Data[o*inN : (o+1)*inN]
			dwRow := dW.Data[o*inN : (o+1)*inN]
			for i := 0; i < inN; i++ {
				dwRow[i] += g * x.Data[i]
				dx.Data[i] += g * wRow[i]
			}
		}
		accumulateWeight(out, n, dW)
		if n.BiasLen > 0 {
			accumulateBias(out, n, dOut.Data)
		}
		return []*tensor.Tensor{dx}, nil

	case graph.OpBatchNorm:
		// Inference-mode BN: y = scale*(x-mean) + beta with
		// scale = gamma/sqrt(var+eps); mean/var frozen.
		x := in(0)
		c := n.BNChannels
		plane := x.Shape.NumElems() / c
		dx := tensor.New(x.Shape...)
		dGamma := make([]float32, c)
		dBeta := make([]float32, c)
		for ic := 0; ic < c; ic++ {
			inv := 1 / float32(math.Sqrt(float64(n.BN.Variance[ic]+n.BN.Eps)))
			scale := n.BN.Gamma[ic] * inv
			for i := ic * plane; i < (ic+1)*plane; i++ {
				g := dOut.Data[i]
				dx.Data[i] = g * scale
				dGamma[ic] += g * (x.Data[i] - n.BN.Mean[ic]) * inv
				dBeta[ic] += g
			}
		}
		addF32(out.Gamma, n, dGamma)
		addF32(out.Beta, n, dBeta)
		return []*tensor.Tensor{dx}, nil

	case graph.OpReLU:
		return []*tensor.Tensor{maskGrad(in(0), dOut, func(x float32) float32 {
			if x > 0 {
				return 1
			}
			return 0
		})}, nil
	case graph.OpReLU6:
		return []*tensor.Tensor{maskGrad(in(0), dOut, func(x float32) float32 {
			if x > 0 && x < 6 {
				return 1
			}
			return 0
		})}, nil
	case graph.OpLeakyReLU:
		alpha := n.Attrs.LeakySlope()
		return []*tensor.Tensor{maskGrad(in(0), dOut, func(x float32) float32 {
			if x > 0 {
				return 1
			}
			return alpha
		})}, nil
	case graph.OpSigmoid:
		return []*tensor.Tensor{maskGrad(self, dOut, func(y float32) float32 {
			return y * (1 - y)
		})}, nil
	case graph.OpTanh:
		return []*tensor.Tensor{maskGrad(self, dOut, func(y float32) float32 {
			return 1 - y*y
		})}, nil

	case graph.OpMaxPool2D:
		return []*tensor.Tensor{maxPoolBackward(n, in(0), dOut)}, nil
	case graph.OpAvgPool2D:
		return []*tensor.Tensor{avgPoolBackward(n, in(0), dOut)}, nil
	case graph.OpGlobalAvgPool:
		x := in(0)
		c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
		dx := tensor.New(x.Shape...)
		for ic := 0; ic < c; ic++ {
			g := dOut.Data[ic] / float32(h*w)
			seg := dx.Data[ic*h*w : (ic+1)*h*w]
			for i := range seg {
				seg[i] = g
			}
		}
		return []*tensor.Tensor{dx}, nil

	case graph.OpAdd:
		return []*tensor.Tensor{dOut.Clone(), dOut.Clone()}, nil

	case graph.OpConcat:
		outs := make([]*tensor.Tensor, len(n.Inputs))
		off := 0
		for i, src := range n.Inputs {
			sz := src.OutShape.NumElems()
			d := tensor.New(src.OutShape...)
			copy(d.Data, dOut.Data[off:off+sz])
			outs[i] = d
			off += sz
		}
		return outs, nil

	case graph.OpFlatten:
		x := in(0)
		d := tensor.New(x.Shape...)
		copy(d.Data, dOut.Data)
		return []*tensor.Tensor{d}, nil

	case graph.OpSoftmax:
		// dx_i = y_i (g_i - Σ_j g_j y_j)
		y := self
		var dot float32
		for i := range y.Data {
			dot += dOut.Data[i] * y.Data[i]
		}
		dx := tensor.New(y.Shape...)
		for i := range y.Data {
			dx.Data[i] = y.Data[i] * (dOut.Data[i] - dot)
		}
		return []*tensor.Tensor{dx}, nil

	case graph.OpPad:
		x := in(0)
		p := n.Attrs.Pad
		c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
		dx := tensor.New(x.Shape...)
		ow := w + 2*p
		for ic := 0; ic < c; ic++ {
			for iy := 0; iy < h; iy++ {
				srcOff := (ic*(h+2*p)+iy+p)*ow + p
				copy(dx.Data[(ic*h+iy)*w:(ic*h+iy)*w+w], dOut.Data[srcOff:srcOff+w])
			}
		}
		return []*tensor.Tensor{dx}, nil

	case graph.OpShuffle:
		// Inverse permutation: forward sent channel i to
		// (i%g)*(C/g) + i/g, so route each output-channel gradient back.
		x := in(0)
		g := n.Attrs.GroupCount()
		c := x.Shape[0]
		plane := x.Shape.NumElems() / c
		per := c / g
		dx := tensor.New(x.Shape...)
		for i := 0; i < c; i++ {
			dst := (i%g)*per + i/g
			copy(dx.Data[i*plane:(i+1)*plane], dOut.Data[dst*plane:(dst+1)*plane])
		}
		return []*tensor.Tensor{dx}, nil

	case graph.OpUpsample:
		x := in(0)
		f := n.Attrs.Factor
		c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
		dx := tensor.New(x.Shape...)
		oh, ow := h*f, w*f
		for ic := 0; ic < c; ic++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					dx.Data[(ic*h+oy/f)*w+ox/f] += dOut.Data[(ic*oh+oy)*ow+ox]
				}
			}
		}
		return []*tensor.Tensor{dx}, nil

	default:
		return nil, fmt.Errorf("no backward rule for %v", n.Kind)
	}
}

// convBackward handles standard and grouped 2-D convolutions.
func convBackward(n *graph.Node, x, dOut *tensor.Tensor, out *Gradients) ([]*tensor.Tensor, error) {
	spec := n.Attrs.ConvSpec()
	groups := n.Attrs.GroupCount()
	cin, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	cout := n.WShape[0]
	kh, kw := n.WShape[2], n.WShape[3]
	cinG, coutG := cin/groups, cout/groups
	hout, wout := dOut.Shape[1], dOut.Shape[2]
	padH, padW := convPads(spec)
	stride := spec.Stride
	if stride <= 0 {
		stride = 1
	}

	dx := tensor.New(x.Shape...)
	dW := tensor.New(n.WShape...)
	var dB []float32
	if n.BiasLen > 0 {
		dB = make([]float32, cout)
	}
	for oc := 0; oc < cout; oc++ {
		gi := oc / coutG // group index
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				g := dOut.Data[(oc*hout+oy)*wout+ox]
				if g == 0 {
					continue
				}
				if dB != nil {
					dB[oc] += g
				}
				for icg := 0; icg < cinG; icg++ {
					ic := gi*cinG + icg
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - padH
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*stride + kx - padW
							if ix < 0 || ix >= w {
								continue
							}
							wIdx := ((oc*cinG+icg)*kh+ky)*kw + kx
							xIdx := (ic*h+iy)*w + ix
							dx.Data[xIdx] += g * n.Weights.Data[wIdx]
							dW.Data[wIdx] += g * x.Data[xIdx]
						}
					}
				}
			}
		}
	}
	accumulateWeight(out, n, dW)
	if dB != nil {
		accumulateBias(out, n, dB)
	}
	return []*tensor.Tensor{dx}, nil
}

// convPads is a convolution's padding per axis, as the forward reads it:
// Pad on both, unless Asym makes PadH / PadW authoritative.
func convPads(spec tensor.Conv2DSpec) (padH, padW int) {
	if spec.Asym {
		return spec.PadH, spec.PadW
	}
	return spec.Pad, spec.Pad
}

// dwConvBackward handles depthwise convolutions.
func dwConvBackward(n *graph.Node, x, dOut *tensor.Tensor, out *Gradients) ([]*tensor.Tensor, error) {
	spec := n.Attrs.ConvSpec()
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	kh, kw := n.WShape[1], n.WShape[2]
	hout, wout := dOut.Shape[1], dOut.Shape[2]
	stride := spec.Stride
	if stride <= 0 {
		stride = 1
	}
	padH, padW := convPads(spec)

	dx := tensor.New(x.Shape...)
	dW := tensor.New(n.WShape...)
	var dB []float32
	if n.BiasLen > 0 {
		dB = make([]float32, c)
	}
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				g := dOut.Data[(ic*hout+oy)*wout+ox]
				if g == 0 {
					continue
				}
				if dB != nil {
					dB[ic] += g
				}
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride + ky - padH
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride + kx - padW
						if ix < 0 || ix >= w {
							continue
						}
						wIdx := (ic*kh+ky)*kw + kx
						xIdx := (ic*h+iy)*w + ix
						dx.Data[xIdx] += g * n.Weights.Data[wIdx]
						dW.Data[wIdx] += g * x.Data[xIdx]
					}
				}
			}
		}
	}
	accumulateWeight(out, n, dW)
	if dB != nil {
		accumulateBias(out, n, dB)
	}
	return []*tensor.Tensor{dx}, nil
}

func maxPoolBackward(n *graph.Node, x, dOut *tensor.Tensor) *tensor.Tensor {
	k, stride, pad := n.Attrs.Kernel, n.Attrs.Stride, n.Attrs.Pad
	if stride <= 0 {
		stride = k
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	hout, wout := dOut.Shape[1], dOut.Shape[2]
	dx := tensor.New(x.Shape...)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				// Recompute the argmax and route the gradient there.
				best := float32(-math.MaxFloat32)
				bestIdx := -1
				for ky := 0; ky < k; ky++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						if v := x.Data[(ic*h+iy)*w+ix]; v > best {
							best, bestIdx = v, (ic*h+iy)*w+ix
						}
					}
				}
				if bestIdx >= 0 {
					dx.Data[bestIdx] += dOut.Data[(ic*hout+oy)*wout+ox]
				}
			}
		}
	}
	return dx
}

func avgPoolBackward(n *graph.Node, x, dOut *tensor.Tensor) *tensor.Tensor {
	k, stride, pad := n.Attrs.Kernel, n.Attrs.Stride, n.Attrs.Pad
	if stride <= 0 {
		stride = k
	}
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	hout, wout := dOut.Shape[1], dOut.Shape[2]
	dx := tensor.New(x.Shape...)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				// Count in-bounds cells (count_exclude_pad, matching
				// forward).
				count := 0
				for ky := 0; ky < k; ky++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*stride + kx - pad
						if ix >= 0 && ix < w {
							count++
						}
					}
				}
				if count == 0 {
					continue
				}
				g := dOut.Data[(ic*hout+oy)*wout+ox] / float32(count)
				for ky := 0; ky < k; ky++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							continue
						}
						dx.Data[(ic*h+iy)*w+ix] += g
					}
				}
			}
		}
	}
	return dx
}

func maskGrad(ref, dOut *tensor.Tensor, deriv func(float32) float32) *tensor.Tensor {
	dx := tensor.New(ref.Shape...)
	for i, v := range ref.Data {
		dx.Data[i] = dOut.Data[i] * deriv(v)
	}
	return dx
}

func accumulateWeight(out *Gradients, n *graph.Node, dW *tensor.Tensor) {
	if acc, ok := out.Weights[n]; ok {
		for i, v := range dW.Data {
			acc.Data[i] += v
		}
		return
	}
	out.Weights[n] = dW
}

func accumulateBias(out *Gradients, n *graph.Node, dB []float32) {
	if acc, ok := out.Bias[n]; ok {
		for i, v := range dB {
			acc[i] += v
		}
		return
	}
	out.Bias[n] = append([]float32(nil), dB...)
}

func addF32(m map[*graph.Node][]float32, n *graph.Node, d []float32) {
	if acc, ok := m[n]; ok {
		for i, v := range d {
			acc[i] += v
		}
		return
	}
	m[n] = append([]float32(nil), d...)
}
