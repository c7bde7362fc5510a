package graph

import (
	"fmt"
	"math"

	"edgebench/internal/tensor"
)

// This file holds the count-returning graph rewrites behind the
// internal/opt pass manager: pattern fusion (Conv→BN→act and
// Dense→act chains into single epilogue-fused nodes), compile-time
// constant folding, identity elimination, and generalized dead-node
// elimination. Each returns how much it changed so the manager can
// iterate to fixpoint and report per-pass deltas. Unlike FoldBN, the
// pattern fuser never rewrites weights — the batch-norm becomes a
// runtime per-channel affine epilogue inside the fused kernel, so a
// fused graph's outputs are bitwise identical to the unfused graph's.

// FusePatterns rewrites compute→BatchNorm→activation chains (and the
// degenerate BN-only / activation-only tails) into single fused nodes
// and returns the number of chains rewritten. The batch-norm is
// absorbed as a per-channel affine epilogue (EpiChannels/EpiScale/
// EpiShift) computed with the exact BatchNormInto formula, and the
// activation as the node's fused Activation — both execute inside one
// kernel call, bitwise identical to the separate nodes. A stage is
// absorbed only when the producer's value has exactly one consumer and
// is not itself a graph root (otherwise the intermediate value is
// observable and must keep its own node). Quantized nodes (QWeights)
// absorb activations but never the affine: the int8 requantize epilogue
// has no per-channel affine stage.
func FusePatterns(g *Graph) int {
	cons := consumers(g)
	dead := map[*Node]bool{}
	fused := 0
	for _, n := range g.Nodes {
		// Every kind that absorbs an affine absorbs an activation too.
		if dead[n] || n.Activation != 0 || n.EpiChannels > 0 || !n.Kind.AbsorbsActivation() {
			continue
		}
		tail := n
		changed := false

		// Absorb a following batch-norm as the affine epilogue.
		if n.Kind.AbsorbsAffine() && n.QWeights == nil && singleUse(g, cons, tail) {
			if bn := cons[tail][0]; bn.Kind == OpBatchNorm && !dead[bn] {
				absorbBN(n, bn)
				replaceUses(g, bn, n)
				cons[n] = cons[bn]
				dead[bn] = true
				tail = n
				changed = true
			}
		}

		// Absorb a following activation.
		if n.Kind.AbsorbsActivation() && singleUse(g, cons, tail) {
			if a := cons[tail][0]; a.Kind.IsActivation() && !dead[a] {
				n.Activation = a.Kind
				n.Attrs.Alpha = a.Attrs.Alpha
				replaceUses(g, a, n)
				cons[n] = cons[a]
				dead[a] = true
				changed = true
			}
		}

		if changed {
			fused++
		}
	}
	removeNodes(g, dead)
	return fused
}

// singleUse reports whether n's value flows to exactly one consumer and
// is not observable as a graph root — the legality condition for
// absorbing n's consumer into n.
func singleUse(g *Graph, cons map[*Node][]*Node, n *Node) bool {
	return len(cons[n]) == 1 && g.Output != n && !isExtra(g, n)
}

// absorbBN moves bn's normalization onto n as an epilogue affine. The
// scale/shift terms replicate BatchNormInto exactly so the fused kernel
// computes bit-identical values; on structural graphs (no BN arrays)
// only the channel count is recorded.
func absorbBN(n *Node, bn *Node) {
	c := bn.OutShape[0]
	n.EpiChannels = c
	if p := bn.BN; p != nil {
		scale := make([]float32, c)
		shift := make([]float32, c)
		for ic := 0; ic < c; ic++ {
			s := p.Gamma[ic] / float32(math.Sqrt(float64(p.Variance[ic]+p.Eps)))
			scale[ic] = s
			shift[ic] = p.Beta[ic] - float32(p.Mean[ic]*s)
		}
		n.EpiScale, n.EpiShift = scale, shift
	}
}

// FoldConstants evaluates every node whose inputs are all materialized
// constants at compile time — by running the node's bound kernel, so
// folded values take the exact kernel paths inference would — and
// replaces it with an OpConst carrying the result. The sweep runs
// in topological order, so folds cascade through all-constant subgraphs
// in one call. Returns the number of nodes folded.
func FoldConstants(g *Graph) (int, error) {
	folded := 0
	for i, n := range g.Nodes {
		if !constFoldable(n) {
			continue
		}
		val, err := evalConst(n)
		if err != nil {
			return folded, fmt.Errorf("graph %s: folding node %s: %w", g.Name, n, err)
		}
		c := &Node{
			Name:     n.Name + "_folded",
			Kind:     OpConst,
			WShape:   val.Shape.Clone(),
			Weights:  val,
			OutShape: val.Shape.Clone(),
			DType:    n.DType,
		}
		c.ID = g.nextID
		g.nextID++
		g.Nodes[i] = c
		replaceUses(g, n, c)
		folded++
	}
	return folded, nil
}

// constFoldable reports whether n can be evaluated at compile time: a
// non-source op with at least one input, every input a materialized
// constant, its own parameters materialized, and no int8 codes (a
// quantized node's dispatch is an execution-path property the fold
// would erase).
func constFoldable(n *Node) bool {
	if n.Kind == OpInput || n.Kind == OpConst || len(n.Inputs) == 0 {
		return false
	}
	if !n.Materialized() || n.QWeights != nil {
		return false
	}
	for _, in := range n.Inputs {
		if in.Kind != OpConst || in.Weights == nil {
			return false
		}
	}
	return true
}

// evalConst evaluates n over its constant inputs with the kernel bind
// picks for it — the one inference would run, so the folded bits are
// inference's. A kernel that writes into a buffer gets a fresh one, and
// a residual kernel panic is an error, as in the executor.
func evalConst(n *Node) (val *tensor.Tensor, err error) {
	k, err := bind(n)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			val, err = nil, fmt.Errorf("kernel panic: %v", r)
		}
	}()
	in := make([]*tensor.Tensor, len(n.Inputs))
	for i, c := range n.Inputs {
		in[i] = c.Weights
	}
	var dst *tensor.Tensor
	if k.dst {
		dst = tensor.New(n.OutShape...) // edgelint:ignore pool-alloc — compile-time fold, not a hot path
	}
	return k.run(n, dst, in), nil
}

// EliminateIdentity removes structural no-ops — shape-preserving nodes
// whose kernels reduce to a copy: factor-1 upsamples, group-1 shuffles,
// zero pads, single-input concats, and flattens of already-flat
// tensors. Returns the number of nodes removed.
func EliminateIdentity(g *Graph) int {
	dead := map[*Node]bool{}
	for _, n := range g.Nodes {
		if !isIdentityNode(n) {
			continue
		}
		replaceUses(g, n, n.Inputs[0])
		dead[n] = true
	}
	removeNodes(g, dead)
	return len(dead)
}

// isIdentityNode reports whether n provably forwards its input
// unchanged (the kernel would perform a pure copy).
func isIdentityNode(n *Node) bool {
	if len(n.Inputs) != 1 || n.Activation != 0 || n.EpiChannels > 0 {
		return false
	}
	if !n.OutShape.Equal(n.Inputs[0].OutShape) {
		return false
	}
	switch n.Kind {
	case OpUpsample:
		return n.Attrs.Factor <= 1
	case OpShuffle:
		return n.Attrs.GroupCount() == 1
	case OpPad:
		return n.Attrs.Pad == 0
	case OpConcat:
		return true // single input, checked above
	case OpFlatten:
		return true // input already rank-1, shapes equal
	}
	return false
}
