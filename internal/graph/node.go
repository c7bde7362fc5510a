package graph

import (
	"fmt"

	"edgebench/internal/tensor"
)

// Attrs carries the scalar attributes of an operation. Zero values mean
// "default" (stride 1, no padding).
type Attrs struct {
	Kernel  int     // pooling kernel size (convs derive it from weights)
	KernelD int     // temporal pooling kernel for 3-D pools (0 = Kernel)
	Stride  int     // spatial stride
	StrideD int     // temporal stride for 3-D pools (0 = StrideD follows kernel)
	Pad     int     // spatial zero padding (both axes)
	PadH    int     // per-axis padding override (with Asym)
	PadW    int     // per-axis padding override (with Asym)
	Asym    bool    // PadH/PadW are authoritative
	Groups  int     // conv channel groups (0/1 = dense conv; AlexNet uses 2)
	Factor  int     // upsample factor
	Alpha   float32 // LeakyReLU negative slope
}

// ConvSpec translates the attrs into a tensor convolution spec.
func (a Attrs) ConvSpec() tensor.Conv2DSpec {
	return tensor.Conv2DSpec{Stride: a.Stride, Pad: a.Pad, PadH: a.PadH, PadW: a.PadW, Asym: a.Asym}
}

// Pool3DSpec translates the attrs into a tensor 3-D pooling spec.
func (a Attrs) Pool3DSpec() tensor.Pool3DSpec {
	kd := a.KernelD
	if kd == 0 {
		kd = a.Kernel
	}
	return tensor.Pool3DSpec{
		KernelD: kd, Kernel: a.Kernel,
		StrideD: a.StrideD, Stride: a.Stride,
		PadSpatial: a.Pad,
	}
}

// GroupCount returns the effective group count (at least 1).
func (a Attrs) GroupCount() int {
	if a.Groups <= 1 {
		return 1
	}
	return a.Groups
}

// LeakySlope returns the effective LeakyReLU negative slope: Alpha when
// set, else the DarkNet default 0.1. Centralizing the default keeps the
// forward and backward paths agreeing and avoids sentinel float
// comparisons at use sites (edgelint's float-eq rule).
func (a Attrs) LeakySlope() float32 {
	if a.Alpha > 0 {
		return a.Alpha
	}
	return 0.1
}

// BNParams holds frozen batch-normalization statistics and affine terms.
type BNParams struct {
	Gamma, Beta, Mean, Variance []float32
	Eps                         float32
}

// Clone returns a deep copy of the parameters.
func (p *BNParams) Clone() *BNParams {
	if p == nil {
		return nil
	}
	return &BNParams{
		Gamma:    append([]float32(nil), p.Gamma...),
		Beta:     append([]float32(nil), p.Beta...),
		Mean:     append([]float32(nil), p.Mean...),
		Variance: append([]float32(nil), p.Variance...),
		Eps:      p.Eps,
	}
}

// Node is one operation in a computation graph.
//
// Parameters have two layers: the *structural* description (WShape,
// BiasLen, BNChannels) always present so cost/FLOP accounting works on
// arbitrarily large models without allocating gigabytes, and the
// *materialized* values (Weights, Bias, BN) present only when the graph
// will be executed numerically. The paper's largest models (VGG16: 138 M
// parameters) are used in timing/cost experiments only, exactly as the
// paper uses randomized weights as a performance proxy (§VI-A fn.4).
type Node struct {
	ID     int
	Name   string
	Kind   OpKind
	Inputs []*Node
	Attrs  Attrs

	// Structural parameter description.
	WShape     tensor.Shape // weight tensor shape; nil if the op has none
	BiasLen    int          // number of bias parameters
	BNChannels int          // batch-norm channels (4 parameters each)

	// Materialized parameter values (may be nil on structural graphs).
	Weights *tensor.Tensor
	Bias    []float32
	BN      *BNParams

	// QWeights holds real int8 weights after a quantization pass, which
	// keeps them only where the executor runs the int8 kernels
	// (Int8Kernel) and then drops Weights: one copy, codes or FP32. The
	// codes lie as the kernel reads them, tensor.ConvCodeShape(WShape).
	QWeights *tensor.QTensor

	// OutShape is the inferred output shape.
	OutShape tensor.Shape

	// DType is the execution datatype. Quantization/FP16 passes set it;
	// the analytic cost model reads it.
	DType tensor.DType

	// Activation, when non-zero, is an activation fused into this node by
	// the fusion pass (executed after the node's main computation).
	Activation OpKind

	// FusedBN records that a batch-norm was folded into this node, so
	// profiling can attribute the saved op.
	FusedBN bool

	// EpiChannels, when non-zero, records a batch-norm absorbed into this
	// node as a per-channel affine epilogue by the pattern-fusion pass
	// (FusePatterns). Unlike FoldBN, which rewrites the weights (and
	// so perturbs numerics), the epilogue executes at runtime inside the
	// fused kernel — bitwise identical to the separate BatchNorm node.
	// EpiChannels is the structural description; EpiScale/EpiShift are the
	// materialized per-channel terms (scale = gamma/sqrt(var+eps),
	// shift = beta - mean*scale), nil on structural graphs.
	EpiChannels int
	// EpiScale and EpiShift hold the materialized epilogue affine terms,
	// each of length EpiChannels.
	EpiScale, EpiShift []float32

	// Sparsity is the fraction of zero weights after pruning, in [0, 1].
	Sparsity float64
}

// String renders the node as "#ID name(kind)->shape" for diagnostics.
func (n *Node) String() string {
	return fmt.Sprintf("#%d %s(%s)->%v", n.ID, n.Name, n.Kind, n.OutShape)
}

// ParamCount returns the number of learned parameters the node carries.
func (n *Node) ParamCount() int64 {
	var p int64
	if n.WShape != nil {
		p += int64(n.WShape.NumElems())
	}
	p += int64(n.BiasLen)
	p += 4 * int64(n.BNChannels)
	p += 2 * int64(n.EpiChannels)
	return p
}

// WeightBytes returns the storage footprint of the node's parameters in
// the node's execution datatype.
func (n *Node) WeightBytes() int64 {
	return n.ParamCount() * int64(n.DType.Bytes())
}

// Materialized reports whether the node holds the parameter values its
// kernel reads (a requirement for numeric execution): Weights, or int8
// codes that bind runs int8.
func (n *Node) Materialized() bool {
	if n.WShape != nil && n.Weights == nil && (n.QWeights == nil || !Int8Kernel(n)) {
		return false
	}
	if n.BiasLen > 0 && n.Bias == nil {
		return false
	}
	if n.BNChannels > 0 && n.BN == nil {
		return false
	}
	if n.EpiChannels > 0 && (n.EpiScale == nil || n.EpiShift == nil) {
		return false
	}
	return true
}

func (n *Node) in(i int) *Node {
	if i >= len(n.Inputs) {
		panic(fmt.Sprintf("graph: node %s missing input %d", n, i))
	}
	return n.Inputs[i]
}
