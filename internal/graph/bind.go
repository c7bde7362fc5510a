package graph

import (
	"fmt"

	"edgebench/internal/tensor"
)

// kernel is the implementation bind selects for one node, with the
// facts the planner, the pre-packer and the dispatch counters need
// about it. It is the single place the question "which
// kernel runs this node" is answered; everything else reads the answer.
type kernel struct {
	// run evaluates the node on in, its input values in Inputs order.
	// When dst is set the executor passes a buffer of the node's OutShape
	// whose contents are arbitrary (it may be a recycled arena buffer);
	// run stores every element and returns it. Otherwise run is passed
	// nil and returns a tensor it allocated — or, for views and
	// constants, one it shares.
	run func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor
	dst bool

	// pack, on a kernel that packs its weight operand on every call,
	// caches on the node the ahead-of-time panels bind then selects the
	// kernel's pre-packed twin for; it reports whether it packed.
	pack func(n *Node) bool

	// act and affine say how much of a node's epilogue run applies
	// itself: a fused activation, an absorbed batch-norm.
	act, affine bool

	// What DispatchCounts records per evaluation: compute marks the
	// conv/dense family; int8 the int8 path (else a compute kernel counts
	// as FP32); fused a non-empty epilogue applied inside the kernel.
	// int8 is also the quantizer's question: would int8 codes be used
	// here. packed is a fact nothing counts: the kernel reads an
	// ahead-of-time panel.
	compute, int8, fused, packed bool
}

// bind selects n's kernel from what the node carries: its kind, group
// count, absorbed epilogue, int8 codes and cached panels. A node with an
// absorbed batch-norm affine but no kernel that applies one is refused —
// any fallback would silently skip the affine, so the verifier forbids
// the combination and the executor will not run it. Nodes whose int8
// codes the int8 kernels cannot honour (an absorbed affine, which the
// requantize epilogue has no stage for, or an unknown activation) run
// the FP32 kernels on the dequantized shadow in Weights.
func bind(n *Node) (kernel, error) {
	act := n.Activation != 0
	int8 := n.QWeights != nil && n.EpiChannels == 0 && (!act || actFor(n.Activation) != tensor.ActNone)
	var k kernel
	switch n.Kind {
	case OpConst:
		k = kernel{run: runConst}
	case OpConv2D:
		switch {
		case n.Attrs.GroupCount() > 1:
			k = kernel{run: convGrouped(), dst: true, act: true, affine: true}
		case int8 && n.PackedQ != nil:
			k = kernel{run: runConvQPacked, dst: true, act: true, int8: true, packed: true}
		case int8:
			k = kernel{run: runConvQ, pack: packConvQ, dst: true, act: true, int8: true}
		case n.Packed != nil:
			k = kernel{run: runConvPacked, dst: true, act: true, affine: true, packed: true}
		default:
			k = kernel{run: convGEMM(), pack: packConv, dst: true, act: true, affine: true}
		}
		k.compute = true
	case OpDepthwiseConv2D:
		k = kernel{run: runDepthwise, dst: true, act: true, affine: true, compute: true}
	case OpConv3D:
		k = kernel{run: runConv3D, compute: true}
	case OpDense:
		switch {
		case int8 && n.PackedQ != nil:
			k = kernel{run: runDenseQPacked, dst: true, act: true, int8: true, packed: true}
		case int8:
			k = kernel{run: runDenseQ, pack: packDenseQ, dst: true, act: true, int8: true}
		default:
			// FP32 dense has no packed form: its matvec accumulation
			// order is one the blocked GEMM cannot reproduce bitwise.
			k = kernel{run: runDense, dst: true, act: true, affine: true}
		}
		k.compute = true
	case OpAdd:
		k = kernel{run: runAdd, dst: true, act: true}
	case OpBatchNorm:
		k = kernel{run: runBatchNorm, dst: true}
	case OpReLU, OpReLU6, OpLeakyReLU, OpSigmoid, OpTanh:
		k = kernel{run: runActivation, dst: true}
	case OpMaxPool2D:
		k = kernel{run: runMaxPool, dst: true}
	case OpAvgPool2D:
		k = kernel{run: runAvgPool, dst: true}
	case OpGlobalAvgPool:
		k = kernel{run: runGlobalAvgPool, dst: true}
	case OpMaxPool3D:
		k = kernel{run: runMaxPool3D}
	case OpUpsample:
		k = kernel{run: runUpsample, dst: true}
	case OpShuffle:
		k = kernel{run: runShuffle, dst: true}
	case OpConcat:
		k = kernel{run: runConcat, dst: true}
	case OpSoftmax:
		k = kernel{run: runSoftmax, dst: true}
	case OpPad:
		k = kernel{run: runPad, dst: true}
	case OpFlatten:
		k = kernel{run: runFlatten}
	case OpLSTM:
		k = kernel{run: runLSTM}
	default:
		return kernel{}, fmt.Errorf("unsupported op %v", n.Kind)
	}
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
// entry point to the run signature and reads the node's
// parameters when called, so training's in-place weight updates are seen.

func runConst(n *Node, _ *tensor.Tensor, _ []*tensor.Tensor) *tensor.Tensor {
	// Consumers treat inputs as read-only, so no defensive copy is made.
	return n.Weights
}

func runConvQPacked(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.Conv2DQPrepackedInto(dst, in[0], n.PackedQ, n.QWeights, n.Bias, n.Attrs.ConvSpec(),
		actFor(n.Activation), n.Attrs.LeakySlope())
	return dst
}

func runConvQ(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.Conv2DQInt8Into(dst, in[0], n.QWeights, n.Bias, n.Attrs.ConvSpec(),
		actFor(n.Activation), n.Attrs.LeakySlope())
	return dst
}

func runConvPacked(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.Conv2DPrepackedInto(dst, in[0], n.Packed, n.Bias, n.Attrs.ConvSpec(), epilogue(n))
	return dst
}

// convGEMM returns the unpacked GEMM convolution kernel. How sparse the
// weights are decides between the dense and the zero-skipping GEMM, and
// weights are constant, so the first run measures it and every later one
// passes it down (bind also serves the planner and the passes, which run
// nothing; an executor runs one inference at a time).
// tensor.PackConvWeights refuses to pack by the same predicate on the same
// measure of the same data, so a graph stays on one kernel family packed
// or not.
func convGEMM() func(*Node, *tensor.Tensor, []*tensor.Tensor) *tensor.Tensor {
	zeroFrac := -1.0
	return func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
		if zeroFrac < 0 {
			zeroFrac = tensor.Sparsity(n.Weights)
		}
		tensor.Conv2DGEMMFusedInto(dst, in[0], n.Weights, n.Bias, n.Attrs.ConvSpec(), epilogue(n), zeroFrac)
		return dst
	}
}

// convGrouped returns the grouped convolution kernel: it splits the
// input channels into groups and convolves each group with its own
// filter slice (AlexNet's two-GPU heritage layout) — the unpacked GEMM
// convolution once per group, on views of the input, the filter bank, the
// bias, the epilogue's affine and the destination, so nothing is copied
// or joined. Weights are [Cout, Cin/groups, KH, KW]; output channels
// partition evenly across groups. The first run builds the views and
// measures each slice's sparsity, as in convGEMM; every run re-points
// them (the input and destination are the executor's to recycle, and
// training may have replaced the weights' storage).
func convGrouped() func(*Node, *tensor.Tensor, []*tensor.Tensor) *tensor.Tensor {
	type group struct {
		in, w, dst *tensor.Tensor
		zeroFrac   float64
	}
	var gs []group
	// part is group gi's share of a per-channel or per-element slice.
	part := func(data []float32, gi int) []float32 {
		per := len(data) / len(gs)
		return data[gi*per : (gi+1)*per]
	}
	return func(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
		x := in[0]
		if gs == nil {
			groups, cin, cout := n.Attrs.GroupCount(), x.Shape[0], n.WShape[0]
			if cin%groups != 0 || cout%groups != 0 {
				panic(fmt.Sprintf("grouped conv: channels %d/%d not divisible by %d groups", cin, cout, groups))
			}
			gs = make([]group, groups)
			for gi := range gs {
				gs[gi] = group{
					in:  tensor.FromData(part(x.Data, gi), cin/groups, x.Shape[1], x.Shape[2]),
					w:   tensor.FromData(part(n.Weights.Data, gi), cout/groups, cin/groups, n.WShape[2], n.WShape[3]),
					dst: tensor.FromData(part(dst.Data, gi), cout/groups, dst.Shape[1], dst.Shape[2]),
				}
				gs[gi].zeroFrac = tensor.Sparsity(gs[gi].w)
			}
		}
		epi := epilogue(n)
		for gi := range gs {
			g, gepi := &gs[gi], epi
			g.in.Data, g.w.Data, g.dst.Data = part(x.Data, gi), part(n.Weights.Data, gi), part(dst.Data, gi)
			gepi.Scale, gepi.Shift = part(epi.Scale, gi), part(epi.Shift, gi)
			tensor.Conv2DGEMMFusedInto(g.dst, g.in, g.w, part(n.Bias, gi), n.Attrs.ConvSpec(), gepi, g.zeroFrac)
		}
		return dst
	}
}

func runDepthwise(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.DepthwiseConv2DFusedInto(dst, in[0], n.Weights, n.Bias, n.Attrs.ConvSpec(), epilogue(n))
	return dst
}

func runConv3D(n *Node, _ *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	return tensor.Conv3D(in[0], n.Weights, n.Bias, tensor.Conv3DSpec{Stride: n.Attrs.Stride, Pad: n.Attrs.Pad})
}

func runDenseQPacked(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.DenseQPrepackedInto(dst.Data, n.PackedQ, n.QWeights, n.Bias, in[0].Data,
		actFor(n.Activation), n.Attrs.LeakySlope())
	return dst
}

func runDenseQ(n *Node, dst *tensor.Tensor, in []*tensor.Tensor) *tensor.Tensor {
	tensor.DenseQInt8Into(dst.Data, n.QWeights, n.Bias, in[0].Data, actFor(n.Activation), n.Attrs.LeakySlope())
	return dst
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
