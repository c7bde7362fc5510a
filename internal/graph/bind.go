package graph

import (
	"fmt"

	"edgebench/internal/tensor"
)

// kernel is the implementation bind builds for one node, with the facts
// Program.Counts totals about it. It is the single place the
// question "which kernel runs this node" is answered; everything else
// reads the answer.
type kernel struct {
	// run evaluates the node on in, its input values in Inputs order.
	// When dst is set the executor passes a buffer of the node's OutShape
	// whose contents are arbitrary (it may be its value's arena slot);
	// run stores every element and returns it. Otherwise run is passed
	// nil and returns a tensor it allocated — or, for views and
	// constants, one it shares. run only reads what it closes over: a
	// program's steps run on several executors at once.
	run runFunc
	dst bool

	// act and affine say how much of a node's epilogue run applies
	// itself: a fused activation, an absorbed batch-norm.
	act, affine bool

	// What Compile totals into Program.Counts: compute marks the
	// conv/dense family; int8 the int8 path (else a compute kernel counts
	// as FP32); fused a non-empty epilogue applied inside the kernel.
	compute, int8, fused bool

	// panelBytes is a fact Counts leaves out: the size of the weight
	// panels bind packed for run to read, 0 when it packed none.
	panelBytes int
}

// runFunc is a kernel's evaluator (kernel.run).
type runFunc func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor

// bind selects n's kernel from what the node carries — its kind, group
// count, absorbed epilogue and int8 codes — and builds it: the weight
// panels the kernel reads are made here, once per compile, and closed
// over. A node with an absorbed batch-norm affine but no kernel that
// applies one is refused — any fallback would silently skip the affine,
// so the verifier forbids the combination and the executor will not run
// it.
func bind(n *Node) (kernel, error) {
	act := n.Activation != 0
	var k kernel
	switch n.Kind {
	case OpConst:
		k = kernel{run: runConst}
	case OpConv2D:
		switch {
		case n.Attrs.GroupCount() > 1:
			run, panels, err := convGrouped(n)
			if err != nil {
				return kernel{}, err
			}
			k = kernel{run: run, act: true, affine: true, panelBytes: panels}
		case runsInt8(n):
			run, panels := convQ(n)
			k = kernel{run: run, act: true, int8: true, panelBytes: panels}
		default:
			run, panels := convFP32(n)
			k = kernel{run: run, act: true, affine: true, panelBytes: panels}
		}
		k.compute = true
	case OpDepthwiseConv2D:
		k = kernel{run: runDepthwise, act: true, affine: true, compute: true}
	case OpConv3D:
		k = kernel{run: runConv3D, compute: true}
	case OpDense:
		if runsInt8(n) {
			run, panels := denseQ(n)
			k = kernel{run: run, act: true, int8: true, panelBytes: panels}
		} else {
			// FP32 dense has no packed form: its matvec accumulation
			// order is one the blocked GEMM cannot reproduce bitwise.
			k = kernel{run: runDense, act: true, affine: true}
		}
		k.compute = true
	case OpAdd:
		k = kernel{run: runAdd, act: true}
	case OpBatchNorm:
		k = kernel{run: runBatchNorm}
	case OpReLU, OpReLU6, OpLeakyReLU, OpSigmoid, OpTanh:
		k = kernel{run: runActivation}
	case OpMaxPool2D:
		k = kernel{run: runMaxPool}
	case OpAvgPool2D:
		k = kernel{run: runAvgPool}
	case OpGlobalAvgPool:
		k = kernel{run: runGlobalAvgPool}
	case OpMaxPool3D:
		k = kernel{run: runMaxPool3D}
	case OpUpsample:
		k = kernel{run: runUpsample}
	case OpShuffle:
		k = kernel{run: runShuffle}
	case OpConcat:
		k = kernel{run: runConcat}
	case OpSoftmax:
		k = kernel{run: runSoftmax}
	case OpPad:
		k = kernel{run: runPad}
	case OpFlatten:
		k = kernel{run: runFlatten}
	case OpLSTM:
		k = kernel{run: runLSTM}
	default:
		return kernel{}, fmt.Errorf("unsupported op %v", n.Kind)
	}
	k.dst = writesDst(n.Kind)
	switch {
	case n.EpiChannels > 0 && !k.affine:
		return kernel{}, fmt.Errorf("no fused kernel for %s with an absorbed batch-norm epilogue", n.Kind)
	case act && !k.act:
		// 3-D convolutions: the activation sweeps the kernel's own output
		// in place. Views and constants own no output.
		if actFor(n.Activation) == tensor.ActNone || isAliasOp(n) || n.Kind == OpConst {
			return kernel{}, fmt.Errorf("no kernel applies fused %v to %s", n.Activation, n.Kind)
		}
		inner := k.run
		k.run = func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
			out := inner(n, dst, in)
			epilogue(n).ApplyInto(out)
			return out
		}
	default:
		k.fused = act || n.EpiChannels > 0
	}
	return k, nil
}

// writesDst reports whether the kernel of an op kind writes into a
// buffer the executor hands it — an arena slot, when the plan gives one —
// rather than returning a tensor of its own.
func writesDst(k OpKind) bool {
	switch k {
	case OpInput, OpConst, OpConv3D, OpMaxPool3D, OpFlatten, OpLSTM:
		return false
	}
	return true
}

// runsInt8 reports whether bind runs n on an int8 kernel: an ungrouped
// convolution or a dense layer carrying int8 codes the int8 kernels can
// honour. An absorbed affine, which the requantize epilogue has no stage
// for, or an activation it cannot fuse sends the node to the FP32
// kernels on the dequantized shadow in Weights.
func runsInt8(n *Node) bool {
	switch {
	case n.QWeights == nil || n.EpiChannels > 0:
		return false
	case n.Activation != 0 && actFor(n.Activation) == tensor.ActNone:
		return false
	}
	return n.Kind == OpDense || n.Kind == OpConv2D && n.Attrs.GroupCount() == 1
}

// epilogue is the node's absorbed batch-norm affine and activation as
// the fused kernels take it; the zero value when nothing is fused.
func epilogue(n *Node) tensor.Epilogue {
	return tensor.Epilogue{
		Scale: n.EpiScale,
		Shift: n.EpiShift,
		Act:   actFor(n.Activation),
		Alpha: n.Attrs.LeakySlope(),
	}
}

// actFor maps a node's fused activation to the tensor epilogue enum.
func actFor(k OpKind) tensor.Act {
	switch k {
	case OpReLU:
		return tensor.ActReLU
	case OpReLU6:
		return tensor.ActReLU6
	case OpLeakyReLU:
		return tensor.ActLeakyReLU
	case OpSigmoid:
		return tensor.ActSigmoid
	case OpTanh:
		return tensor.ActTanh
	}
	return tensor.ActNone
}

func poolSpec(n *Node) tensor.PoolSpec {
	return tensor.PoolSpec{Kernel: n.Attrs.Kernel, Stride: n.Attrs.Stride, Pad: n.Attrs.Pad}
}

// The kernels bind chooses between. Each adapts one internal/tensor
// entry point to the run signature; the constructors among them (convQ,
// convFP32, convGrouped, denseQ) build, once, what their kernel reads of
// the weights.

func runConst(n *Node, _ *tensor.Tensor, _ []*tensor.Tensor) *tensor.Tensor {
	// Consumers treat inputs as read-only, so no defensive copy is made.
	return n.Weights
}

// convQ packs the int8 convolution's codes into panels and returns the
// kernel that runs on them, with the panels' size in bytes.
func convQ(n *Node) (runFunc, int) {
	pq := tensor.PackQConvWeights(n.QWeights)
	return func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
		tensor.Conv2DQPrepackedInto(dst, in[0], pq, n.QWeights, n.Bias, n.Attrs.ConvSpec(),
			actFor(n.Activation), n.Attrs.LeakySlope())
		return dst
	}, len(pq.Panels)
}

// convFP32 packs the FP32 convolution's weights for the kernel its
// geometry selects (packFP32) and returns the kernel that runs on them,
// with the panels' size in bytes.
func convFP32(n *Node) (runFunc, int) {
	conv := packFP32(n.Weights, n.Attrs.ConvSpec())
	return func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
		conv.run(dst, in[0], n.Bias, epilogue(n))
		return dst
	}, conv.bytes
}

// fp32Conv is one FP32 convolution's weights, packed for the kernel its
// geometry selects — pp for a pointwise conv, pw for any other — and the
// packs' size in bytes.
type fp32Conv struct {
	pp    *tensor.PackedPointwise
	pw    *tensor.PackedWeights
	spec  tensor.Conv2DSpec
	bytes int
}

// packFP32 packs w once for the FP32 convolution kernel the geometry
// selects: a pointwise conv (1x1, stride 1, unpadded) runs channel-major
// on its input in place, any other the transposed im2row GEMM. Both give
// the same bits, so the choice is speed alone, made here once.
func packFP32(w *tensor.Tensor, spec tensor.Conv2DSpec) fp32Conv {
	if tensor.Pointwise(w.Shape[2], w.Shape[3], spec) {
		pp := tensor.PackPointwiseWeights(w)
		return fp32Conv{pp: pp, bytes: 4 * len(pp.Panels)}
	}
	pw := tensor.PackConvWeights(w)
	return fp32Conv{pw: pw, spec: spec, bytes: 4 * len(pw.Panels)}
}

// run convolves in into dst on the packed weights.
func (c fp32Conv) run(dst, in *tensor.Tensor, bias []float32, epi tensor.Epilogue) {
	if c.pp != nil {
		tensor.PointwiseConvInto(dst, in, c.pp, bias, epi)
		return
	}
	tensor.Conv2DPrepackedInto(dst, in, c.pw, bias, c.spec, epi)
}

// convGrouped builds the grouped convolution kernel: it splits the input
// channels into groups and convolves each group with its own filter
// slice (AlexNet's two-GPU heritage layout) — the FP32 convolution
// packFP32 selects, once per group, on weights packed here for each
// group's filter slice and on views of the input, the bias, the
// epilogue's affine and the destination, so nothing is copied or joined. Weights are
// [Cout, Cin/groups, KH, KW]; output channels partition evenly across
// groups. The input and destination views are headers on the run's own
// stack, since the buffers under them are the executor's. It also
// returns the panels' total size in bytes.
func convGrouped(n *Node) (runFunc, int, error) {
	groups, x, cout := n.Attrs.GroupCount(), n.Inputs[0].OutShape, n.WShape[0]
	if x[0]%groups != 0 || cout%groups != 0 {
		return nil, 0, fmt.Errorf("grouped conv: channels %d/%d not divisible by %d groups", x[0], cout, groups)
	}
	// part is group gi's share of a per-channel or per-element slice.
	part := func(data []float32, gi int) []float32 {
		per := len(data) / groups
		return data[gi*per : (gi+1)*per]
	}
	convs, panels := make([]fp32Conv, groups), 0
	for gi := range convs {
		convs[gi] = packFP32(tensor.FromData(part(n.Weights.Data, gi), cout/groups, x[0]/groups, n.WShape[2], n.WShape[3]), n.Attrs.ConvSpec())
		panels += convs[gi].bytes
	}
	inShape := tensor.Shape{x[0] / groups, x[1], x[2]}
	dstShape := tensor.Shape{cout / groups, n.OutShape[1], n.OutShape[2]}
	return func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
		epi := epilogue(n)
		for gi, conv := range convs {
			gin := tensor.Tensor{Shape: inShape, Data: part(in[0].Data, gi)}
			gdst := tensor.Tensor{Shape: dstShape, Data: part(dst.Data, gi)}
			gepi := epi
			gepi.Scale, gepi.Shift = part(epi.Scale, gi), part(epi.Shift, gi)
			conv.run(&gdst, &gin, part(n.Bias, gi), gepi)
		}
		return dst
	}, panels, nil
}

func runDepthwise(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.DepthwiseConv2DFusedInto(dst, in[0], n.Weights, n.Bias, n.Attrs.ConvSpec(), epilogue(n))
	return dst
}

func runConv3D(n *Node, _ *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	return tensor.Conv3D(in[0], n.Weights, n.Bias, tensor.Conv3DSpec{Stride: n.Attrs.Stride, Pad: n.Attrs.Pad})
}

// denseQ packs the int8 dense layer's codes into panels and returns the
// kernel that runs on them, with the panels' size in bytes.
func denseQ(n *Node) (runFunc, int) {
	pq := tensor.PackQDenseWeights(n.QWeights)
	return func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
		tensor.DenseQPrepackedInto(dst.Data, pq, n.QWeights, n.Bias, in[0].Data,
			actFor(n.Activation), n.Attrs.LeakySlope())
		return dst
	}, len(pq.Panels)
}

func runDense(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.DenseFusedInto(dst, n.Weights, n.Bias, in[0].Data, epilogue(n))
	return dst
}

func runAdd(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.AddFusedInto(dst, in[0], in[1], epilogue(n))
	return dst
}

func runBatchNorm(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.BatchNormInto(dst, in[0], n.BN.Gamma, n.BN.Beta, n.BN.Mean, n.BN.Variance, n.BN.Eps)
	return dst
}

func runActivation(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.ActivationInto(dst, in[0], actFor(n.Kind), n.Attrs.LeakySlope())
	return dst
}

func runMaxPool(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.MaxPool2DInto(dst, in[0], poolSpec(n))
	return dst
}

func runAvgPool(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.AvgPool2DInto(dst, in[0], poolSpec(n))
	return dst
}

func runGlobalAvgPool(_ *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.GlobalAvgPool2DInto(dst.Data, in[0])
	return dst
}

func runMaxPool3D(n *Node, _ *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPool3DSpec(in[0], n.Attrs.Pool3DSpec())
}

func runUpsample(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.UpsampleNearest2DInto(dst, in[0], n.Attrs.Factor)
	return dst
}

func runShuffle(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.ShuffleChannelsInto(dst, in[0], n.Attrs.GroupCount())
	return dst
}

func runConcat(_ *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.ConcatChannelsInto(dst, in...)
	return dst
}

func runSoftmax(_ *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.SoftmaxInto(dst.Data, in[0].Data)
	return dst
}

func runPad(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.Pad2DInto(dst, in[0], n.Attrs.Pad)
	return dst
}

func runFlatten(_ *Node, _ *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	return in[0].Reshape(in[0].Shape.NumElems())
}

func runLSTM(n *Node, _ *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	h := tensor.LSTM(n.Weights, n.Bias, in[0])
	return tensor.FromData(h, len(h))
}
