package graph

import (
	"fmt"

	"edgebench/internal/tensor"
)

// Mode distinguishes the two graph-construction disciplines the paper
// contrasts (§III, Table II "Dynamic Graph" row).
type Mode int

const (
	// Static graphs are built once, frozen, optimized offline, and reused
	// across inferences (TensorFlow, TFLite, Caffe, TensorRT after build).
	Static Mode = iota
	// Dynamic graphs are constructed, used, and freed per inference
	// (PyTorch define-by-run). They pay per-op dispatch each run but can
	// execute models that exceed device memory by freeing intermediates.
	Dynamic
)

// String names the execution mode.
func (m Mode) String() string {
	if m == Dynamic {
		return "dynamic"
	}
	return "static"
}

// Graph is a single-input, single-output computation DAG. Nodes is kept
// in topological order by construction (every node is appended after its
// inputs).
type Graph struct {
	Name   string
	Nodes  []*Node
	Input  *Node
	Output *Node
	// Extra holds additional graph outputs beyond Output — detection
	// models (YOLOv3, SSD) emit one tensor per scale/head. Liveness
	// analysis (dead-code elimination, dynamic-mode memory release)
	// treats them as roots.
	Extra []*Node
	Mode  Mode

	// Frozen marks a static graph as deployment-ready: variables have
	// been converted to constants and no further building is allowed
	// (TFLite's "freezing the computation graph", §III-A).
	Frozen bool

	nextID int
}

// New creates an empty graph with an input node of the given shape.
func New(name string, inputShape ...int) *Graph {
	g := &Graph{Name: name}
	in := &Node{Kind: OpInput, Name: "input", OutShape: tensor.Shape(inputShape).Clone()}
	g.add(in)
	g.Input = in
	g.Output = in
	return g
}

func (g *Graph) add(n *Node) *Node {
	g.Append(n)
	g.Output = n
	return n
}

// Add appends a node computing kind over the given inputs, infers its
// output shape, and returns it. Weight-bearing ops must have Weights set
// before Add via the With* option funcs on Node, so model builders use the
// helper constructors below instead. It panics on inconsistent
// structure: model builders are code, so a bad node is a bug.
// Error-tolerant callers (deserializers, the verifier) use InferShapeE.
func (g *Graph) Add(n *Node) *Node {
	if len(n.Inputs) == 0 && n.Kind != OpInput {
		n.Inputs = []*Node{g.Output}
	}
	s, err := InferShapeE(n)
	if err != nil {
		panic(err.Error())
	}
	n.OutShape = s
	return g.add(n)
}

// Freeze marks the graph as deployment-ready: Append (and so every
// builder) panics on a frozen graph; rewrites that only rewire or drop
// existing nodes, like the optimization passes, still apply. Freezing
// an already frozen graph is a no-op.
func (g *Graph) Freeze() { g.Frozen = true }

// Append appends a fully-formed node without shape inference or output
// rewiring — the entry point for deserializers and graph surgery outside
// this package (which must not mutate Nodes directly; edgelint's
// nodes-mut rule enforces that). The caller is responsible for
// topological placement and for setting Input/Output/Extra; Validate and
// verify.Check enforce the result. The node receives the next free ID,
// and an empty name defaults to kind_id.
func (g *Graph) Append(n *Node) *Node {
	if g.Frozen {
		panic("graph: cannot append nodes to a frozen graph")
	}
	n.ID = g.nextID
	g.nextID++
	if n.Name == "" {
		n.Name = fmt.Sprintf("%s_%d", n.Kind, n.ID)
	}
	g.Nodes = append(g.Nodes, n)
	return n
}

// NumOps returns the count of non-input nodes (the per-inference dispatch
// count in the cost model).
func (g *Graph) NumOps() int {
	n := 0
	for _, node := range g.Nodes {
		if node.Kind != OpInput {
			n++
		}
	}
	return n
}

// Params returns the total learned-parameter count.
func (g *Graph) Params() int64 {
	var p int64
	for _, n := range g.Nodes {
		p += n.ParamCount()
	}
	return p
}

// Validate checks structural invariants: topological order, input arity,
// and shape consistency. It returns the first violation found.
func (g *Graph) Validate() error {
	seen := make(map[*Node]bool, len(g.Nodes))
	ids := make(map[int]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		if ids[n.ID] {
			return fmt.Errorf("graph %s: duplicate node id %d", g.Name, n.ID)
		}
		ids[n.ID] = true
		for _, in := range n.Inputs {
			if !seen[in] {
				return fmt.Errorf("graph %s: node %s uses input %s before definition", g.Name, n, in)
			}
		}
		if want := arity(n.Kind); want >= 0 && len(n.Inputs) != want {
			return fmt.Errorf("graph %s: node %s has %d inputs, want %d", g.Name, n, len(n.Inputs), want)
		}
		if n.Kind != OpInput {
			inferred, err := InferShapeE(n)
			if err != nil {
				return fmt.Errorf("graph %s: %w", g.Name, err)
			}
			if !inferred.Equal(n.OutShape) {
				return fmt.Errorf("graph %s: node %s shape %v, inferred %v", g.Name, n, n.OutShape, inferred)
			}
		}
		seen[n] = true
	}
	if g.Output == nil || !seen[g.Output] {
		return fmt.Errorf("graph %s: output node not in graph", g.Name)
	}
	for _, x := range g.Extra {
		if !seen[x] {
			return fmt.Errorf("graph %s: extra output %s not in graph", g.Name, x)
		}
	}
	return nil
}

// Roots returns all output nodes (primary plus extras).
func (g *Graph) Roots() []*Node {
	return append([]*Node{g.Output}, g.Extra...)
}

// arity returns the required input count for an op kind, or -1 for
// variadic ops.
func arity(k OpKind) int {
	switch k {
	case OpInput, OpConst:
		return 0
	case OpAdd:
		return 2
	case OpConcat:
		return -1
	default:
		return 1
	}
}

// Clone returns a structurally independent copy of the graph. Weight
// tensors are deep-copied so optimization passes on the clone do not
// disturb the original (frameworks each lower the same model).
func (g *Graph) Clone() *Graph {
	mapping := make(map[*Node]*Node, len(g.Nodes))
	out := &Graph{Name: g.Name, Mode: g.Mode, Frozen: false, nextID: g.nextID}
	for _, n := range g.Nodes {
		cp := &Node{
			ID:          n.ID,
			Name:        n.Name,
			Kind:        n.Kind,
			Attrs:       n.Attrs,
			WShape:      n.WShape.Clone(),
			BiasLen:     n.BiasLen,
			BNChannels:  n.BNChannels,
			OutShape:    n.OutShape.Clone(),
			DType:       n.DType,
			Activation:  n.Activation,
			FusedBN:     n.FusedBN,
			EpiChannels: n.EpiChannels,
			Sparsity:    n.Sparsity,
			BN:          n.BN.Clone(),
		}
		if n.EpiScale != nil {
			cp.EpiScale = append([]float32(nil), n.EpiScale...)
		}
		if n.EpiShift != nil {
			cp.EpiShift = append([]float32(nil), n.EpiShift...)
		}
		if n.Weights != nil {
			cp.Weights = n.Weights.Clone()
		}
		if n.QWeights != nil {
			cp.QWeights = n.QWeights.Clone()
		}
		if n.Bias != nil {
			cp.Bias = append([]float32(nil), n.Bias...)
		}
		for _, in := range n.Inputs {
			cp.Inputs = append(cp.Inputs, mapping[in])
		}
		mapping[n] = cp
		out.Nodes = append(out.Nodes, cp)
	}
	out.Input = mapping[g.Input]
	out.Output = mapping[g.Output]
	for _, x := range g.Extra {
		out.Extra = append(out.Extra, mapping[x])
	}
	return out
}

// InferShapeE computes a node's output shape from its inputs and
// attributes, returning an error for any structural inconsistency: wrong
// arity, wrong input or weight rank, channel mismatches, or degenerate
// (non-positive) output dimensions. A recover guard converts residual
// panics from the tensor spec helpers into errors, so InferShapeE never
// panics on malformed nodes — the property the exchange fuzzers assert.
func InferShapeE(n *Node) (shape tensor.Shape, err error) {
	defer func() {
		if r := recover(); r != nil {
			shape, err = nil, fmt.Errorf("graph: node %s: shape inference: %v", n, r)
		}
	}()
	if want := arity(n.Kind); want >= 0 {
		if len(n.Inputs) != want {
			return nil, fmt.Errorf("graph: node %s: %d inputs, want %d", n, len(n.Inputs), want)
		}
	} else if len(n.Inputs) == 0 {
		return nil, fmt.Errorf("graph: node %s: variadic op needs at least one input", n)
	}
	for i, in := range n.Inputs {
		if in == nil {
			return nil, fmt.Errorf("graph: node %s: input %d is nil", n, i)
		}
	}
	shape, err = inferShape(n)
	if err != nil {
		return nil, fmt.Errorf("graph: node %s: %w", n, err)
	}
	for _, d := range shape {
		if d < 1 {
			return nil, fmt.Errorf("graph: node %s: inferred shape %v has a non-positive dimension", n, shape)
		}
	}
	return shape, nil
}

// wantRank checks an input or weight shape's rank.
func wantRank(what string, s tensor.Shape, rank int) error {
	if len(s) != rank {
		return fmt.Errorf("%s %v is rank %d, want %d", what, s, len(s), rank)
	}
	return nil
}

func inferShape(n *Node) (tensor.Shape, error) {
	switch n.Kind {
	case OpInput:
		if len(n.OutShape) == 0 {
			return nil, fmt.Errorf("input node has no shape")
		}
		return n.OutShape, nil
	case OpConst:
		if len(n.WShape) == 0 {
			return nil, fmt.Errorf("const node has no value shape")
		}
		return n.WShape.Clone(), nil
	case OpConv2D:
		in, w := n.in(0).OutShape, n.WShape
		if err := wantRank("input", in, 3); err != nil {
			return nil, err
		}
		if err := wantRank("weights", w, 4); err != nil {
			return nil, err
		}
		g := n.Attrs.GroupCount()
		if in[0] != w[1]*g || w[0]%g != 0 {
			return nil, fmt.Errorf("conv channels: input %d, weights %v, groups %d", in[0], w, g)
		}
		h, wd := n.Attrs.ConvSpec().OutDims(in[1], in[2], w[2], w[3])
		return tensor.Shape{w[0], h, wd}, nil
	case OpDepthwiseConv2D:
		in, w := n.in(0).OutShape, n.WShape
		if err := wantRank("input", in, 3); err != nil {
			return nil, err
		}
		if err := wantRank("weights", w, 3); err != nil {
			return nil, err
		}
		if in[0] != w[0] {
			return nil, fmt.Errorf("depthwise channels: input %d, weights %d", in[0], w[0])
		}
		h, wd := n.Attrs.ConvSpec().OutDims(in[1], in[2], w[1], w[2])
		return tensor.Shape{in[0], h, wd}, nil
	case OpConv3D:
		in, w := n.in(0).OutShape, n.WShape
		if err := wantRank("input", in, 4); err != nil {
			return nil, err
		}
		if err := wantRank("weights", w, 5); err != nil {
			return nil, err
		}
		if in[0] != w[1] {
			return nil, fmt.Errorf("conv3d channels: input %d, weights %d", in[0], w[1])
		}
		spec := tensor.Conv3DSpec{Stride: n.Attrs.Stride, Pad: n.Attrs.Pad}
		return tensor.Shape{w[0], spec.OutDim(in[1], w[2]), spec.OutDim(in[2], w[3]), spec.OutDim(in[3], w[4])}, nil
	case OpDense:
		in, w := n.in(0).OutShape, n.WShape
		if err := wantRank("weights", w, 2); err != nil {
			return nil, err
		}
		if w[1] != in.NumElems() {
			return nil, fmt.Errorf("dense weights %v incompatible with input %v", w, in)
		}
		return tensor.Shape{w[0]}, nil
	case OpLSTM:
		in, w := n.in(0).OutShape, n.WShape
		if err := wantRank("weights", w, 2); err != nil {
			return nil, err
		}
		hidden := w[0] / 4
		if len(in) != 2 || w[0]%4 != 0 || w[1] != in[1]+hidden {
			return nil, fmt.Errorf("LSTM weights %v incompatible with input %v", w, in)
		}
		return tensor.Shape{hidden}, nil
	case OpMaxPool2D, OpAvgPool2D:
		in := n.in(0).OutShape
		if err := wantRank("input", in, 3); err != nil {
			return nil, err
		}
		if n.Attrs.Kernel < 1 || n.Attrs.Pad < 0 {
			return nil, fmt.Errorf("bad pool spec %+v", n.Attrs)
		}
		spec := tensor.PoolSpec{Kernel: n.Attrs.Kernel, Stride: n.Attrs.Stride, Pad: n.Attrs.Pad}
		return tensor.Shape{in[0], spec.OutDim(in[1]), spec.OutDim(in[2])}, nil
	case OpMaxPool3D:
		in := n.in(0).OutShape
		if err := wantRank("input", in, 4); err != nil {
			return nil, err
		}
		if n.Attrs.Kernel < 1 || n.Attrs.Pad < 0 {
			return nil, fmt.Errorf("bad pool spec %+v", n.Attrs)
		}
		d, h, w := n.Attrs.Pool3DSpec().OutDims(in[1], in[2], in[3])
		return tensor.Shape{in[0], d, h, w}, nil
	case OpUpsample:
		in := n.in(0).OutShape
		if err := wantRank("input", in, 3); err != nil {
			return nil, err
		}
		f := n.Attrs.Factor
		if f < 1 {
			f = 1
		}
		return tensor.Shape{in[0], in[1] * f, in[2] * f}, nil
	case OpGlobalAvgPool:
		in := n.in(0).OutShape
		if err := wantRank("input", in, 3); err != nil {
			return nil, err
		}
		return tensor.Shape{in[0]}, nil
	case OpFlatten:
		return tensor.Shape{n.in(0).OutShape.NumElems()}, nil
	case OpAdd:
		a, b := n.in(0).OutShape, n.in(1).OutShape
		if !a.Equal(b) {
			return nil, fmt.Errorf("add shape mismatch %v vs %v", a, b)
		}
		return a.Clone(), nil
	case OpConcat:
		first := n.in(0).OutShape
		if err := wantRank("input", first, 3); err != nil {
			return nil, err
		}
		c := 0
		for _, in := range n.Inputs {
			s := in.OutShape
			if len(s) != 3 || s[1] != first[1] || s[2] != first[2] {
				return nil, fmt.Errorf("concat spatial mismatch %v vs %v", s, first)
			}
			c += s[0]
		}
		return tensor.Shape{c, first[1], first[2]}, nil
	case OpPad:
		in := n.in(0).OutShape
		if err := wantRank("input", in, 3); err != nil {
			return nil, err
		}
		p := n.Attrs.Pad
		if p < 0 {
			return nil, fmt.Errorf("negative padding %d", p)
		}
		return tensor.Shape{in[0], in[1] + 2*p, in[2] + 2*p}, nil
	case OpBatchNorm:
		in := n.in(0).OutShape
		if n.BNChannels > 0 && n.BNChannels != in[0] {
			return nil, fmt.Errorf("batchnorm channels %d over input %v", n.BNChannels, in)
		}
		return in.Clone(), nil
	case OpReLU, OpReLU6, OpLeakyReLU, OpSigmoid, OpTanh, OpSoftmax:
		return n.in(0).OutShape.Clone(), nil
	case OpShuffle:
		in := n.in(0).OutShape
		if err := wantRank("input", in, 3); err != nil {
			return nil, err
		}
		if g := n.Attrs.GroupCount(); in[0]%g != 0 {
			return nil, fmt.Errorf("shuffle groups %d do not divide channels %d", g, in[0])
		}
		return in.Clone(), nil
	default:
		return nil, fmt.Errorf("cannot infer shape for op %v", n.Kind)
	}
}
