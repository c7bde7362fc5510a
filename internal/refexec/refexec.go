// Package refexec is a deliberately naive interpreter over the graph IR:
// the reference the engine (graph.Executor) is checked against, and the
// forward pass training differentiates (internal/autodiff).
//
// Every op is a plain loop nest written from the op's definition, with
// float64 accumulation and one rounding to float32 per output element.
// Batch-norm and activations are separate passes. Nothing is pooled,
// sharded, packed or fused, and nothing from internal/tensor runs here:
// the package uses its Tensor and Shape types and their constructors
// only (refexec_test.go enforces that). It is meant to stay obviously
// right, not fast: speeding it up is not a change this package takes.
//
// It implements the FP32 semantics of the nodes its callers reach: the
// op set autodiff differentiates, plus what the zoo's small models use
// (LSTM, grouped convolution, channel shuffle). A node carrying int8
// codes, an absorbed batch-norm epilogue or a fused activation, and the
// 3-D ops, are errors that name the op.
//
// # Tolerance
//
// The engine runs float32 arithmetic in its own association order, so
// it agrees with the oracle to within a per-op tolerance, not bit for
// bit. The table (Tolerance, Error) is for one op evaluated on the same
// operands: the oracle's values of its inputs. An error is the largest
// elementwise difference in units of u·max|y|, where u = 2⁻²⁴ is
// float32's unit roundoff and max|y| the largest magnitude in the
// oracle's output. K is the op's reduction length: Cin/groups·KH·KW,
// KH·KW, the input length, the window or the plane; for an LSTM, T
// steps of F+H:
//
//	op                                         tolerance   zoo max
//	relu relu6 leaky_relu sigmoid tanh add     0 (exact)   0
//	maxpool2d concat flatten pad upsample
//	shuffle
//	softmax                                    4           1.9
//	batchnorm                                  8           3.9
//	conv2d dwconv2d dense avgpool2d            K           28
//	global_avgpool
//	lstm                                       T·K         22
//
// The exact rows do at most one correctly rounded float32 operation per
// element in both implementations. The last column is the largest error
// measured on the zoo's models under the compute budget (internal/graph
// TestZooEngineMatchesOracle).
package refexec

import (
	"fmt"
	"math"

	"edgebench/internal/graph"
	"edgebench/internal/tensor"
)

// Run evaluates g on input and returns the value of every node: input
// itself for the input node, and for every other node a tensor of its
// own, sharing storage with no other value and no node's parameters.
// The graph is only read.
func Run(g *graph.Graph, input *tensor.Tensor) (map[*graph.Node]*tensor.Tensor, error) {
	if input == nil {
		return nil, fmt.Errorf("refexec: graph %s: input is nil", g.Name)
	}
	if !sameShape(input.Shape, g.Input.OutShape) {
		return nil, fmt.Errorf("refexec: graph %s: input shape %v, want %v", g.Name, input.Shape, g.Input.OutShape)
	}
	vals := make(map[*graph.Node]*tensor.Tensor, len(g.Nodes))
	for _, n := range g.Nodes {
		if n == g.Input {
			vals[n] = input
			continue
		}
		in := make([]*tensor.Tensor, len(n.Inputs))
		for i, src := range n.Inputs {
			if in[i] = vals[src]; in[i] == nil {
				return nil, fmt.Errorf("refexec: graph %s: node %s reads %s before it is computed", g.Name, n, src)
			}
		}
		out, err := eval(n, in)
		if err != nil {
			return nil, fmt.Errorf("refexec: graph %s: node %s: %w", g.Name, n, err)
		}
		if !sameShape(out.Shape, n.OutShape) {
			return nil, fmt.Errorf("refexec: graph %s: node %s computes shape %v", g.Name, n, out.Shape)
		}
		vals[n] = out
	}
	return vals, nil
}

// eval computes one node from its operand values. A node whose
// parameters do not fit its description (a graph from outside the
// program that skipped verification) fails with an error, not a panic.
func eval(n *graph.Node, in []*tensor.Tensor) (out *tensor.Tensor, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%s: %v", n.Kind, r)
		}
	}()
	switch {
	case n.QWeights != nil:
		return nil, fmt.Errorf("%s with int8 codes is not implemented", n.Kind)
	case n.EpiChannels > 0:
		return nil, fmt.Errorf("%s with an absorbed batch-norm epilogue is not implemented", n.Kind)
	case n.Activation != 0:
		return nil, fmt.Errorf("%s with a fused %s is not implemented", n.Kind, n.Activation)
	case !n.Materialized():
		return nil, fmt.Errorf("%s has no parameter values", n.Kind)
	}
	if want := arity(n.Kind); want >= 0 && len(in) != want || want < 0 && len(in) == 0 {
		return nil, fmt.Errorf("%s has %d inputs", n.Kind, len(in))
	}
	a := n.Attrs
	switch n.Kind {
	case graph.OpConst:
		return copyOf(n.Weights, n.Weights.Shape), nil
	case graph.OpConv2D:
		return conv(in[0], n.Weights, n.Bias, a, a.GroupCount(), false)
	case graph.OpDepthwiseConv2D:
		return conv(in[0], n.Weights, n.Bias, a, 0, true)
	case graph.OpDense:
		return dense(in[0], n.Weights, n.Bias)
	case graph.OpLSTM:
		return lstm(in[0], n.Weights, n.Bias)
	case graph.OpBatchNorm:
		return batchNorm(in[0], n.BN)
	case graph.OpReLU, graph.OpReLU6, graph.OpLeakyReLU, graph.OpSigmoid, graph.OpTanh:
		return activation(in[0], n.Kind, float64(a.LeakySlope())), nil
	case graph.OpMaxPool2D:
		return pool(in[0], a, true)
	case graph.OpAvgPool2D:
		return pool(in[0], a, false)
	case graph.OpGlobalAvgPool:
		return globalAvgPool(in[0])
	case graph.OpAdd:
		return add(in[0], in[1])
	case graph.OpConcat:
		return concat(in)
	case graph.OpFlatten:
		return copyOf(in[0], tensor.Shape{len(in[0].Data)}), nil
	case graph.OpSoftmax:
		return softmax(in[0]), nil
	case graph.OpPad:
		return pad(in[0], a.Pad)
	case graph.OpUpsample:
		return upsample(in[0], a.Factor)
	case graph.OpShuffle:
		return shuffle(in[0], a.GroupCount())
	}
	return nil, fmt.Errorf("op %s is not implemented", n.Kind)
}

// arity is the operand count of an op, -1 for variadic ones.
func arity(k graph.OpKind) int {
	switch k {
	case graph.OpConst:
		return 0
	case graph.OpAdd:
		return 2
	case graph.OpConcat:
		return -1
	}
	return 1
}

func sameShape(a, b tensor.Shape) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func copyOf(t *tensor.Tensor, shape tensor.Shape) *tensor.Tensor {
	return tensor.FromData(append([]float32(nil), t.Data...), shape...)
}

// chw returns a rank-3 [C, H, W] tensor's dimensions.
func chw(t *tensor.Tensor) (c, h, w int, err error) {
	if len(t.Shape) != 3 {
		return 0, 0, 0, fmt.Errorf("input %v is not [C, H, W]", t.Shape)
	}
	return t.Shape[0], t.Shape[1], t.Shape[2], nil
}

// outDim is the output length of a window of k taps sliding by stride
// over in positions padded by pad on both sides.
func outDim(in, k, stride, pad int) (int, error) {
	if k < 1 || stride < 1 || pad < 0 || in+2*pad < k {
		return 0, fmt.Errorf("window %d stride %d pad %d does not fit %d", k, stride, pad, in)
	}
	return (in+2*pad-k)/stride + 1, nil
}

// conv is the 2-D convolution of x [Cin, H, W] with w [Cout, Cin/groups,
// KH, KW], or, when depthwise, with w [C, KH, KW] one filter per
// channel: out = bias + Σ w·x over the window, zero outside the input.
func conv(x, w *tensor.Tensor, bias []float32, a graph.Attrs, groups int, depthwise bool) (*tensor.Tensor, error) {
	cin, h, wd, err := chw(x)
	if err != nil {
		return nil, err
	}
	ws := w.Shape
	var cout, cinG, kh, kw int
	switch {
	case depthwise && len(ws) == 3 && ws[0] == cin:
		cout, cinG, kh, kw, groups = cin, 1, ws[1], ws[2], cin
	case !depthwise && len(ws) == 4 && ws[1]*groups == cin && ws[0]%groups == 0:
		cout, cinG, kh, kw = ws[0], ws[1], ws[2], ws[3]
	default:
		return nil, fmt.Errorf("weights %v do not fit input %v (groups %d)", ws, x.Shape, groups)
	}
	stride := max(a.Stride, 1)
	padH, padW := a.Pad, a.Pad
	if a.Asym {
		padH, padW = a.PadH, a.PadW
	}
	hout, err := outDim(h, kh, stride, padH)
	if err != nil {
		return nil, err
	}
	wout, err := outDim(wd, kw, stride, padW)
	if err != nil {
		return nil, err
	}
	out := tensor.New(cout, hout, wout)
	coutG := cout / groups
	for oc := 0; oc < cout; oc++ {
		ic0 := oc / coutG * cinG
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				var s float64
				if bias != nil {
					s = float64(bias[oc])
				}
				for i := 0; i < cinG; i++ {
					for ky := 0; ky < kh; ky++ {
						iy := oy*stride + ky - padH
						if iy < 0 || iy >= h {
							continue
						}
						taps := w.Data[((oc*cinG+i)*kh+ky)*kw:][:kw]
						row := x.Data[((ic0+i)*h+iy)*wd:][:wd]
						for kx, t := range taps {
							if ix := ox*stride + kx - padW; ix >= 0 && ix < wd {
								s += float64(t) * float64(row[ix])
							}
						}
					}
				}
				out.Data[(oc*hout+oy)*wout+ox] = float32(s)
			}
		}
	}
	return out, nil
}

// dense is out = bias + W·x for W [Out, In], x read flat.
func dense(x, w *tensor.Tensor, bias []float32) (*tensor.Tensor, error) {
	if len(w.Shape) != 2 || w.Shape[1] != len(x.Data) {
		return nil, fmt.Errorf("weights %v do not fit input %v", w.Shape, x.Shape)
	}
	m, k := w.Shape[0], w.Shape[1]
	out := tensor.New(m)
	for o := 0; o < m; o++ {
		var s float64
		if bias != nil {
			s = float64(bias[o])
		}
		for i := 0; i < k; i++ {
			s += float64(w.Data[o*k+i]) * float64(x.Data[i])
		}
		out.Data[o] = float32(s)
	}
	return out, nil
}

// lstm runs a [T, F] sequence through an LSTM from zero state and
// returns the last hidden state. W is [4H, F+H] over [x_t; h_{t-1}] with
// gate rows in the order input, forget, cell, output; the state stays
// in float64 across steps.
func lstm(seq, w *tensor.Tensor, bias []float32) (*tensor.Tensor, error) {
	if len(seq.Shape) != 2 || len(w.Shape) != 2 || w.Shape[0]%4 != 0 || w.Shape[1] != seq.Shape[1]+w.Shape[0]/4 {
		return nil, fmt.Errorf("weights %v do not fit sequence %v", w.Shape, seq.Shape)
	}
	steps, f, hid := seq.Shape[0], seq.Shape[1], w.Shape[0]/4
	k := f + hid
	h, c := make([]float64, hid), make([]float64, hid)
	gates := make([]float64, 4*hid)
	for t := 0; t < steps; t++ {
		for r := range gates {
			var s float64
			if bias != nil {
				s = float64(bias[r])
			}
			row := w.Data[r*k : (r+1)*k]
			for i := 0; i < f; i++ {
				s += float64(row[i]) * float64(seq.Data[t*f+i])
			}
			for i := 0; i < hid; i++ {
				s += float64(row[f+i]) * h[i]
			}
			gates[r] = s
		}
		for j := 0; j < hid; j++ {
			ig, fg := sigmoid(gates[j]), sigmoid(gates[hid+j])
			gg, og := math.Tanh(gates[2*hid+j]), sigmoid(gates[3*hid+j])
			c[j] = fg*c[j] + ig*gg
			h[j] = og * math.Tanh(c[j])
		}
	}
	out := tensor.New(hid)
	for j, v := range h {
		out.Data[j] = float32(v)
	}
	return out, nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// batchNorm is inference-mode batch normalization over the first axis:
// y = gamma·(x − mean)/sqrt(var + eps) + beta.
func batchNorm(x *tensor.Tensor, p *graph.BNParams) (*tensor.Tensor, error) {
	c := len(p.Gamma)
	if len(x.Shape) == 0 || x.Shape[0] != c || len(p.Beta) != c || len(p.Mean) != c || len(p.Variance) != c {
		return nil, fmt.Errorf("%d-channel parameters do not fit input %v", c, x.Shape)
	}
	out := tensor.New(x.Shape...)
	plane := len(x.Data) / c
	for ic := 0; ic < c; ic++ {
		sd := math.Sqrt(float64(p.Variance[ic]) + float64(p.Eps))
		for i := ic * plane; i < (ic+1)*plane; i++ {
			v := float64(p.Gamma[ic])*(float64(x.Data[i])-float64(p.Mean[ic]))/sd + float64(p.Beta[ic])
			out.Data[i] = float32(v)
		}
	}
	return out, nil
}

// activation applies an elementwise activation; alpha is LeakyReLU's
// negative slope.
func activation(x *tensor.Tensor, k graph.OpKind, alpha float64) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	for i, v32 := range x.Data {
		v := float64(v32)
		switch k {
		case graph.OpReLU:
			if v < 0 {
				v = 0
			}
		case graph.OpReLU6:
			if v < 0 {
				v = 0
			} else if v > 6 {
				v = 6
			}
		case graph.OpLeakyReLU:
			if v < 0 {
				v *= alpha
			}
		case graph.OpSigmoid:
			v = sigmoid(v)
		case graph.OpTanh:
			v = math.Tanh(v)
		}
		out.Data[i] = float32(v)
	}
	return out
}

// pool is 2-D max or average pooling with a square window (stride
// defaults to the window). Positions in the padding are skipped: they
// never win a max and are not counted in an average, and a window with
// none in the input averages to 0. A max starts from −MaxFloat32 and
// takes a tap only when it is greater, so a NaN never wins.
func pool(x *tensor.Tensor, a graph.Attrs, isMax bool) (*tensor.Tensor, error) {
	c, h, w, err := chw(x)
	if err != nil {
		return nil, err
	}
	k, pad := a.Kernel, a.Pad
	stride := a.Stride
	if stride <= 0 {
		stride = k
	}
	hout, err := outDim(h, k, stride, pad)
	if err != nil {
		return nil, err
	}
	wout, err := outDim(w, k, stride, pad)
	if err != nil {
		return nil, err
	}
	out := tensor.New(c, hout, wout)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < hout; oy++ {
			for ox := 0; ox < wout; ox++ {
				m, sum, cnt := -math.MaxFloat32, 0.0, 0
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
						v := float64(x.Data[(ic*h+iy)*w+ix])
						if v > m {
							m = v
						}
						sum += v
						cnt++
					}
				}
				v := m
				if !isMax {
					v = 0
					if cnt > 0 {
						v = sum / float64(cnt)
					}
				}
				out.Data[(ic*hout+oy)*wout+ox] = float32(v)
			}
		}
	}
	return out, nil
}

// globalAvgPool is the per-channel mean of a [C, H, W] input.
func globalAvgPool(x *tensor.Tensor) (*tensor.Tensor, error) {
	c, h, w, err := chw(x)
	if err != nil {
		return nil, err
	}
	out := tensor.New(c)
	for ic := 0; ic < c; ic++ {
		var s float64
		for _, v := range x.Data[ic*h*w : (ic+1)*h*w] {
			s += float64(v)
		}
		out.Data[ic] = float32(s / float64(h*w))
	}
	return out, nil
}

func add(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if !sameShape(a.Shape, b.Shape) {
		return nil, fmt.Errorf("operands %v and %v differ in shape", a.Shape, b.Shape)
	}
	out := tensor.New(a.Shape...)
	for i := range out.Data {
		out.Data[i] = float32(float64(a.Data[i]) + float64(b.Data[i]))
	}
	return out, nil
}

// concat stacks [C_i, H, W] inputs along channels.
func concat(in []*tensor.Tensor) (*tensor.Tensor, error) {
	_, h, w, err := chw(in[0])
	if err != nil {
		return nil, err
	}
	c := 0
	var data []float32
	for _, t := range in {
		ci, hi, wi, err := chw(t)
		if err != nil || hi != h || wi != w {
			return nil, fmt.Errorf("input %v does not stack on %v", t.Shape, in[0].Shape)
		}
		c += ci
		data = append(data, t.Data...)
	}
	return tensor.FromData(data, c, h, w), nil
}

// softmax normalizes the whole tensor, read flat, to a distribution.
func softmax(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	m := math.Inf(-1)
	for _, v := range x.Data {
		m = math.Max(m, float64(v))
	}
	var sum float64
	for _, v := range x.Data {
		sum += math.Exp(float64(v) - m)
	}
	for i, v := range x.Data {
		out.Data[i] = float32(math.Exp(float64(v)-m) / sum)
	}
	return out
}

// pad surrounds each [H, W] plane with p zeros on every side.
func pad(x *tensor.Tensor, p int) (*tensor.Tensor, error) {
	c, h, w, err := chw(x)
	if err != nil || p < 0 {
		return nil, fmt.Errorf("cannot pad %v by %d", x.Shape, p)
	}
	oh, ow := h+2*p, w+2*p
	out := tensor.New(c, oh, ow)
	for ic := 0; ic < c; ic++ {
		for iy := 0; iy < h; iy++ {
			for ix := 0; ix < w; ix++ {
				out.Data[(ic*oh+iy+p)*ow+ix+p] = x.Data[(ic*h+iy)*w+ix]
			}
		}
	}
	return out, nil
}

// upsample repeats each pixel f times along both spatial axes.
func upsample(x *tensor.Tensor, f int) (*tensor.Tensor, error) {
	c, h, w, err := chw(x)
	if err != nil || f < 1 {
		return nil, fmt.Errorf("cannot upsample %v by %d", x.Shape, f)
	}
	oh, ow := h*f, w*f
	out := tensor.New(c, oh, ow)
	for ic := 0; ic < c; ic++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				out.Data[(ic*oh+oy)*ow+ox] = x.Data[(ic*h+oy/f)*w+ox/f]
			}
		}
	}
	return out, nil
}

// shuffle moves channel i of g groups to (i mod g)·(C/g) + i/g.
func shuffle(x *tensor.Tensor, g int) (*tensor.Tensor, error) {
	c, h, w, err := chw(x)
	if err != nil || c%g != 0 {
		return nil, fmt.Errorf("cannot shuffle %v in %d groups", x.Shape, g)
	}
	out := tensor.New(x.Shape...)
	plane := h * w
	for i := 0; i < c; i++ {
		d := (i%g)*(c/g) + i/g
		copy(out.Data[d*plane:(d+1)*plane], x.Data[i*plane:(i+1)*plane])
	}
	return out, nil
}
