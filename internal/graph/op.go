// Package graph defines the computation-graph IR of the edgebench engine:
// typed operation nodes, static (build→freeze→optimize→run) and dynamic
// (define-by-run) execution modes, a functional executor backed by
// internal/tensor, and the optimization passes the paper's frameworks
// implement (Table II): batch-norm folding, activation fusion, dead-node
// elimination, post-training quantization, FP16 casting, and magnitude
// pruning.
package graph

// OpKind identifies the operation a node performs.
type OpKind int

const (
	// OpInput is the graph entry placeholder.
	OpInput OpKind = iota
	// OpConv2D is a standard 2-D convolution.
	OpConv2D
	// OpDepthwiseConv2D convolves one filter per channel.
	OpDepthwiseConv2D
	// OpConv3D is a 3-D (video) convolution.
	OpConv3D
	// OpDense is a fully-connected layer.
	OpDense
	// OpBatchNorm is inference-mode batch normalization.
	OpBatchNorm
	// OpReLU applies max(0,x).
	OpReLU
	// OpReLU6 applies min(max(0,x),6).
	OpReLU6
	// OpLeakyReLU applies the DarkNet leaky rectifier.
	OpLeakyReLU
	// OpSigmoid applies the logistic function.
	OpSigmoid
	// OpTanh applies the hyperbolic tangent.
	OpTanh
	// OpMaxPool2D applies 2-D max pooling.
	OpMaxPool2D
	// OpAvgPool2D applies 2-D average pooling.
	OpAvgPool2D
	// OpMaxPool3D applies 3-D max pooling.
	OpMaxPool3D
	// OpGlobalAvgPool reduces spatial dims to per-channel means.
	OpGlobalAvgPool
	// OpAdd sums two inputs elementwise (residual connections).
	OpAdd
	// OpConcat concatenates inputs along channels.
	OpConcat
	// OpFlatten reshapes to a rank-1 vector.
	OpFlatten
	// OpSoftmax normalizes a vector to a distribution.
	OpSoftmax
	// OpPad zero-pads spatial dims (DarkNet/SSD explicit padding).
	OpPad
	// OpUpsample replicates pixels by an integer factor (YOLOv3 routes).
	OpUpsample
	// OpLSTM consumes a [T, F] sequence and emits the final hidden
	// state — the recurrent extension the paper declares as future work
	// (§II). Weights are packed [4H, F+H], gate order i,f,g,o.
	OpLSTM
	// OpShuffle permutes channels across groups (ShuffleNet's channel
	// shuffle, §VIII's mobile-specific-model group): with g groups,
	// channel i moves to (i%g)*(C/g) + i/g. Pure data movement.
	OpShuffle
	// OpConst is a compile-time constant tensor: zero inputs, value in
	// Weights (shape WShape). Produced by the constant-folding pass when
	// an all-constant subgraph is evaluated offline; costs zero FLOPs at
	// inference.
	OpConst
)

var opNames = map[OpKind]string{
	OpInput:           "input",
	OpConv2D:          "conv2d",
	OpDepthwiseConv2D: "dwconv2d",
	OpConv3D:          "conv3d",
	OpDense:           "dense",
	OpBatchNorm:       "batchnorm",
	OpReLU:            "relu",
	OpReLU6:           "relu6",
	OpLeakyReLU:       "leaky_relu",
	OpSigmoid:         "sigmoid",
	OpTanh:            "tanh",
	OpMaxPool2D:       "maxpool2d",
	OpAvgPool2D:       "avgpool2d",
	OpMaxPool3D:       "maxpool3d",
	OpGlobalAvgPool:   "global_avgpool",
	OpAdd:             "add",
	OpConcat:          "concat",
	OpFlatten:         "flatten",
	OpSoftmax:         "softmax",
	OpPad:             "pad",
	OpUpsample:        "upsample",
	OpLSTM:            "lstm",
	OpShuffle:         "shuffle",
	OpConst:           "const",
}

// String names the op kind.
func (k OpKind) String() string {
	if s, ok := opNames[k]; ok {
		return s
	}
	return "unknown"
}

// IsActivation reports whether the op is a pure elementwise activation,
// eligible for kernel fusion into a preceding compute op.
func (k OpKind) IsActivation() bool {
	switch k {
	case OpReLU, OpReLU6, OpLeakyReLU, OpSigmoid, OpTanh:
		return true
	}
	return false
}

// IsLinear reports whether the op is a weighted linear map — a
// convolution of any kind or a dense layer — whose weights' first axis is
// its output channels: the kinds FoldBN folds a batch-norm into, the
// per-channel weight scheme gives one scale a channel, and Prune prunes.
func (k OpKind) IsLinear() bool {
	switch k {
	case OpConv2D, OpDepthwiseConv2D, OpConv3D, OpDense:
		return true
	}
	return false
}

// AbsorbsAffine reports whether the executor has a fused FP32 epilogue
// kernel for the op that can absorb a batch-norm as a per-channel affine.
func (k OpKind) AbsorbsAffine() bool {
	switch k {
	case OpConv2D, OpDepthwiseConv2D, OpDense:
		return true
	}
	return false
}

// AbsorbsActivation reports whether an activation node can be absorbed
// into the op (the executor either has a fused kernel or applies the
// recorded activation after the unfused kernel, so this set is wider than
// AbsorbsAffine's).
func (k OpKind) AbsorbsActivation() bool {
	return k.IsLinear() || k == OpAdd
}

// HasWeights reports whether the op carries learned parameters.
// OpConst counts: its value lives in Weights like a parameter tensor.
func (k OpKind) HasWeights() bool {
	switch k {
	case OpConv2D, OpDepthwiseConv2D, OpConv3D, OpDense, OpBatchNorm, OpLSTM, OpConst:
		return true
	}
	return false
}
