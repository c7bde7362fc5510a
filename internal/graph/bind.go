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
}

// runFunc is a kernel's evaluator (kernel.run).
type runFunc func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor

// bind selects n's kernel from what the node carries — its kind, group
// count, absorbed epilogue and int8 codes — and builds it: every kernel
// reads the node's Weights, or its int8 codes, in place, at run time. A node with an absorbed batch-norm affine but no kernel that
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
			run, err := convGrouped(n)
			if err != nil {
				return kernel{}, err
			}
			k = kernel{run: run, act: true, affine: true}
		case runsInt8(n):
			k = kernel{run: convQ(n), act: true, int8: true}
		default:
			k = kernel{run: runConv, act: true, affine: true}
		}
		k.compute = true
	case OpDepthwiseConv2D:
		k = kernel{run: runDepthwise, act: true, affine: true, compute: true}
	case OpConv3D:
		k = kernel{run: runConv3D, compute: true}
	case OpDense:
		if runsInt8(n) {
			k = kernel{run: convQ(n), act: true, int8: true}
		} else {
			// FP32 dense is no convolution: its matvec accumulation
			// order is one the K-quads cannot reproduce bitwise.
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
// convGrouped) build, once, what their kernel needs beyond the node: view
// shapes.

func runConst(n *Node, _ *tensor.Tensor, _ []*tensor.Tensor) *tensor.Tensor {
	// Consumers treat inputs as read-only, so no defensive copy is made.
	return n.Weights
}

// convQ returns the kernel of an int8 convolution or dense layer, which
// reads the node's codes in place. A dense layer is the 1x1 conv of its
// input as an [In, 1, 1] plane: it runs on an [Out, In, 1, 1] header that
// shares the node's codes and scales, and each run views its input and
// output as planes, headers on the run's own stack as convGrouped's are.
func convQ(n *Node) runFunc {
	qw := n.QWeights
	var inShape, dstShape tensor.Shape
	if n.Kind == OpDense {
		view := *qw
		view.Shape = tensor.Shape{qw.Shape[0], qw.Shape[1], 1, 1}
		qw, inShape, dstShape = &view, view.Shape[1:], tensor.Shape{qw.Shape[0], 1, 1}
	}
	return func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
		x, out, spec := *in[0], *dst, n.Attrs.ConvSpec()
		if inShape != nil {
			x.Shape, out.Shape, spec = inShape, dstShape, tensor.Conv2DSpec{}
		}
		tensor.Conv2DQInto(&out, &x, qw, n.Bias, spec, actFor(n.Activation), n.Attrs.LeakySlope())
		return dst
	}
}

func runConv(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.Conv2DInto(dst, in[0], n.Weights, n.Bias, n.Attrs.ConvSpec(), epilogue(n))
	return dst
}

// convGrouped builds the grouped convolution kernel: it splits the input
// channels into groups and convolves each group with its own filter
// slice (AlexNet's two-GPU heritage layout) — the FP32 convolution, once
// per group, on views of the group's filter slice of the node's Weights,
// of the input, the bias, the epilogue's affine and the destination, so
// nothing is copied or joined. Weights are [Cout, Cin/groups, KH, KW];
// output channels partition evenly across groups. The views are headers
// on the run's own stack, since the buffers under them are the
// executor's and the graph's.
func convGrouped(n *Node) (runFunc, error) {
	groups, x, cout := n.Attrs.GroupCount(), n.Inputs[0].OutShape, n.WShape[0]
	if x[0]%groups != 0 || cout%groups != 0 {
		return nil, fmt.Errorf("grouped conv: channels %d/%d not divisible by %d groups", x[0], cout, groups)
	}
	// part is group gi's share of a per-channel or per-element slice.
	part := func(data []float32, gi int) []float32 {
		per := len(data) / groups
		return data[gi*per : (gi+1)*per]
	}
	inShape := tensor.Shape{x[0] / groups, x[1], x[2]}
	wShape := tensor.Shape{cout / groups, x[0] / groups, n.WShape[2], n.WShape[3]}
	dstShape := tensor.Shape{cout / groups, n.OutShape[1], n.OutShape[2]}
	return func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
		epi, spec := epilogue(n), n.Attrs.ConvSpec()
		for gi := range groups {
			gin := tensor.Tensor{Shape: inShape, Data: part(in[0].Data, gi)}
			gw := tensor.Tensor{Shape: wShape, Data: part(n.Weights.Data, gi)}
			gdst := tensor.Tensor{Shape: dstShape, Data: part(dst.Data, gi)}
			gepi := epi
			gepi.Scale, gepi.Shift = part(epi.Scale, gi), part(epi.Shift, gi)
			tensor.Conv2DInto(&gdst, &gin, &gw, part(n.Bias, gi), spec, gepi)
		}
		return dst
	}, nil
}

func runDepthwise(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.DepthwiseConv2DFusedInto(dst, in[0], n.Weights, n.Bias, n.Attrs.ConvSpec(), epilogue(n))
	return dst
}

func runConv3D(n *Node, _ *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	return tensor.Conv3D(in[0], n.Weights, n.Bias, tensor.Conv3DSpec{Stride: n.Attrs.Stride, Pad: n.Attrs.Pad})
}

func runDense(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.DenseInto(dst.Data, n.Weights, n.Bias, in[0].Data)
	epilogue(n).ApplyInto(dst)
	return dst
}

func runAdd(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.AddInto(dst, in[0], in[1])
	epilogue(n).ApplyInto(dst)
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
