package graph

// Cost is the analytic resource footprint of one node (or, summed, of a
// whole graph) for a single-batch inference. FLOPs follow the paper's
// Table I convention of one FLOP per multiply-accumulate, which makes our
// model totals directly comparable to the paper's GFLOP column.
type Cost struct {
	// FLOPs is the arithmetic work (1 per MAC, 1 per elementwise op).
	FLOPs float64
	// MACs is the multiply-accumulate subset of FLOPs — the convolution
	// and matrix-product work. Unlike FLOPs it is invariant under fusion:
	// absorbing a BN or activation into a compute kernel moves elementwise
	// work into the kernel's epilogue but adds no multiplies to the
	// contraction, so O2 and O0 lowerings of one model report equal MACs
	// (the property the cost tests pin down).
	MACs float64
	// WeightBytes is parameter traffic in the node's execution datatype.
	WeightBytes float64
	// ActInBytes and ActOutBytes are activation traffic in and out.
	ActInBytes  float64
	ActOutBytes float64
}

// Bytes returns total memory traffic for the node.
func (c Cost) Bytes() float64 { return c.WeightBytes + c.ActInBytes + c.ActOutBytes }

// NodeCost computes the analytic cost of a node from its structure. It is
// recomputed on demand so optimization passes only need to mutate the
// graph, never cached numbers.
func NodeCost(n *Node) Cost {
	var c Cost
	outElems := float64(n.OutShape.NumElems())
	for _, in := range n.Inputs {
		c.ActInBytes += float64(in.OutShape.NumElems()) * float64(n.DType.Bytes())
	}
	c.ActOutBytes = outElems * float64(n.DType.Bytes())
	c.WeightBytes = float64(n.WeightBytes())

	switch n.Kind {
	case OpInput:
		return Cost{}
	case OpConv2D, OpConv3D:
		// MACs = (elements per filter) x (output elements).
		perFilter := float64(n.WShape.NumElems()) / float64(n.WShape[0])
		c.MACs = perFilter * outElems
		c.FLOPs = c.MACs
		if n.BiasLen > 0 {
			c.FLOPs += outElems
		}
	case OpDepthwiseConv2D:
		kh, kw := n.WShape[1], n.WShape[2]
		c.MACs = float64(kh*kw) * outElems
		c.FLOPs = c.MACs
		if n.BiasLen > 0 {
			c.FLOPs += outElems
		}
	case OpDense:
		c.MACs = float64(n.WShape.NumElems())
		c.FLOPs = c.MACs
		if n.BiasLen > 0 {
			c.FLOPs += outElems
		}
	case OpLSTM:
		// Per step: the packed GEMV plus ~8 elementwise ops per hidden
		// unit for the gate nonlinearities and state updates.
		steps := float64(n.in(0).OutShape[0])
		hidden := float64(n.WShape[0] / 4)
		c.MACs = steps * float64(n.WShape.NumElems())
		c.FLOPs = steps * (float64(n.WShape.NumElems()) + float64(n.BiasLen) + 8*hidden)
	case OpBatchNorm:
		c.FLOPs = 2 * outElems // scale + shift per element
	case OpReLU, OpReLU6, OpLeakyReLU, OpSigmoid, OpTanh, OpAdd, OpSoftmax:
		c.FLOPs = outElems
	case OpMaxPool2D, OpAvgPool2D:
		c.FLOPs = float64(n.Attrs.Kernel*n.Attrs.Kernel) * outElems
	case OpMaxPool3D:
		s := n.Attrs.Pool3DSpec()
		c.FLOPs = float64(s.KernelD*s.Kernel*s.Kernel) * outElems
	case OpGlobalAvgPool:
		c.FLOPs = float64(n.in(0).OutShape.NumElems())
	case OpConcat, OpFlatten, OpPad, OpUpsample, OpShuffle:
		c.FLOPs = 0 // pure data movement
	}

	if n.EpiChannels > 0 {
		c.FLOPs += 2 * outElems // absorbed BN affine: scale + shift per element
	}
	if n.Activation != 0 {
		c.FLOPs += outElems // fused activation still computes
	}
	return c
}

// FLOPs returns the total arithmetic work of one inference.
func (g *Graph) FLOPs() float64 {
	var f float64
	for _, n := range g.Nodes {
		f += NodeCost(n).FLOPs
	}
	return f
}

// PeakActivationBytes estimates the largest set of live activations during
// a topological execution — the graph's working-set proxy used by the
// memory-capacity check (Table V: models that exceed device memory need a
// dynamic graph or fail).
func (g *Graph) PeakActivationBytes() float64 {
	remaining := make(map[*Node]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			remaining[in]++
		}
	}
	live := make(map[*Node]float64, 8)
	var cur, peak float64
	touch := func(n *Node) {
		b := float64(n.OutShape.NumElems()) * float64(n.DType.Bytes())
		live[n] = b
		cur += b
		if cur > peak {
			peak = cur
		}
	}
	touch(g.Input)
	for _, n := range g.Nodes {
		if n.Kind == OpInput {
			continue
		}
		touch(n)
		for _, in := range n.Inputs {
			remaining[in]--
			if remaining[in] == 0 {
				cur -= live[in]
				delete(live, in)
			}
		}
	}
	return peak
}
