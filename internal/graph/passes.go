package graph

import (
	"edgebench/internal/tensor"
)

// consumers returns a map from node to the nodes that read it.
func consumers(g *Graph) map[*Node][]*Node {
	m := make(map[*Node][]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			m[in] = append(m[in], n)
		}
	}
	return m
}

// replaceUses rewires every reference to old so it points at repl, and
// moves the graph output (and any extra-output root) if necessary.
func replaceUses(g *Graph, old, repl *Node) {
	for _, n := range g.Nodes {
		for i, in := range n.Inputs {
			if in == old {
				n.Inputs[i] = repl
			}
		}
	}
	if g.Output == old {
		g.Output = repl
	}
	for i, x := range g.Extra {
		if x == old {
			g.Extra[i] = repl
		}
	}
}

// removeNodes drops the given set from the node list.
func removeNodes(g *Graph, dead map[*Node]bool) {
	if len(dead) == 0 {
		return
	}
	kept := g.Nodes[:0]
	for _, n := range g.Nodes {
		if !dead[n] {
			kept = append(kept, n)
		}
	}
	g.Nodes = kept
}

// FoldBN folds every batch-norm whose producer is a convolution or dense
// layer with no other consumer, not itself a graph root and holding no
// int8 codes, into that producer's weights, then removes the BN node.
// This is the conv+BN half of kernel fusion (§III-B) as the paper's
// frameworks do it — zero run-time cost (Table II) at the price of
// reassociated floats. It stays beside the bit-exact FusePatterns because
// rewriting the weights is the only route by which a Conv→BN chain
// reaches the int8 kernels (bind refuses int8 codes on a node carrying an
// absorbed affine), so it runs before quantization: after it, a BN behind
// a quantized producer stays a node of its own.
func FoldBN(g *Graph) {
	cons := consumers(g)
	dead := map[*Node]bool{}
	for _, n := range g.Nodes {
		if n.Kind != OpBatchNorm {
			continue
		}
		prod := n.Inputs[0]
		// Folding would change a value read elsewhere, and cannot
		// rewrite the int8 codes a quantized producer's kernel reads.
		if !prod.Kind.IsLinear() || !singleUse(g, cons, prod) || prod.QWeights != nil {
			continue
		}
		if prod.Weights != nil && n.BN != nil {
			fw, fb := tensor.FoldBatchNorm(prod.Weights, prod.Bias,
				n.BN.Gamma, n.BN.Beta, n.BN.Mean, n.BN.Variance, n.BN.Eps)
			prod.Weights = fw
			prod.Bias = fb
		}
		// Structurally, folding moves the BN's scale/shift into the
		// producer's weights and a bias of one value per channel
		// (WShape[0] is Cout for convs, channels for depthwise).
		prod.BiasLen = prod.WShape[0]
		prod.FusedBN = true
		replaceUses(g, n, prod)
		cons[prod] = cons[n] // the BN's readers now read prod
		dead[n] = true
	}
	removeNodes(g, dead)
}

// EliminateDead removes nodes unreachable from any graph root —
// TFLite's "removing several redundant and unnecessary operations" when
// freezing a graph (§III-A). The graph input is always kept even when
// unreferenced (constant folding can orphan it; a graph without its
// input node no longer verifies). The node count before and after tells
// a caller how many were removed.
func EliminateDead(g *Graph) {
	reachable := map[*Node]bool{}
	var mark func(*Node)
	mark = func(n *Node) {
		if reachable[n] {
			return
		}
		reachable[n] = true
		for _, in := range n.Inputs {
			mark(in)
		}
	}
	for _, root := range g.Roots() {
		mark(root)
	}
	if g.Input != nil {
		reachable[g.Input] = true
	}
	dead := map[*Node]bool{}
	for _, n := range g.Nodes {
		if !reachable[n] {
			dead[n] = true
		}
	}
	removeNodes(g, dead)
}

// quantizeNode quantizes n's weights to int8, per channel when perChannel
// is set, and leaves the node one copy of them: the codes, in QWeights in
// the layout the int8 kernel reads (tensor.ConvCodes), where bind runs it
// int8 (Int8Kernel), else the dequantized codes in Weights (depthwise,
// grouped, 3-D, LSTM, absorbed-BN nodes), so the FP32 kernels see the
// quantization error.
func quantizeNode(n *Node, perChannel bool) {
	if n.Weights == nil {
		return
	}
	var q *tensor.QTensor
	if perChannel && n.Kind.IsLinear() {
		q = tensor.QuantizePerChannel(n.Weights)
	} else {
		q = tensor.QuantizeSymmetric(n.Weights)
	}
	if Int8Kernel(n) {
		n.QWeights, n.Weights = tensor.ConvCodes(q), nil
	} else {
		n.Weights = q.Dequantize()
	}
}

// QuantizeINT8 applies post-training symmetric INT8 quantization to every
// weight-bearing node: int8-executable ops (dense conv, dense) get real
// int8 weights the executor dispatches to the int8 kernel path, other
// weights are round-tripped through int8 (so the functional path sees
// quantization error), and the node's execution datatype drops to INT8
// (so the cost model sees 4x smaller weights and the device's INT8
// throughput).
func QuantizeINT8(g *Graph) {
	for _, n := range g.Nodes {
		quantizeNode(n, false)
		n.DType = tensor.INT8
	}
}

// QuantizeINT8PerChannel applies post-training quantization with one
// scale per output channel on weight-bearing compute ops (the TFLite
// convolution scheme) and per-tensor scales elsewhere. Numerically
// tighter than QuantizeINT8; identical cost-model consequences, and the
// same real-int8 execution path for supported ops.
func QuantizeINT8PerChannel(g *Graph) {
	for _, n := range g.Nodes {
		quantizeNode(n, true)
		n.DType = tensor.INT8
	}
}

// ErrNotMaterialized is a sentinel message fragment used when numeric
// execution is requested on a structural-only graph; see Executor.Run.
const ErrNotMaterialized = "structural-only parameters"

// CastFP16 converts execution to half precision: weights are
// round-tripped through binary16 and the datatype drops to FP16.
func CastFP16(g *Graph) {
	for _, n := range g.Nodes {
		if n.Weights != nil {
			n.Weights = tensor.RoundTripFP16(n.Weights)
		}
		n.DType = tensor.FP16
	}
}

// Prune applies global magnitude pruning at the given fraction to every
// convolution and dense layer, recording per-node sparsity. Whether the
// zeros translate into compute savings depends on the framework's
// sparse-execution support (Table II ‡‡), which the cost model consults.
//
// edgelint:seam tests (graph, verify, exchange) and internal/core's
// pruning ablation benchmark make sparse-weight graphs with it; nothing
// outside a test prunes a graph.
func Prune(fraction float64) func(*Graph) {
	return func(g *Graph) {
		for _, n := range g.Nodes {
			switch {
			case !n.Kind.IsLinear():
			case n.Weights != nil:
				tensor.PruneMagnitude(n.Weights, fraction)
				n.Sparsity = tensor.Sparsity(n.Weights)
			default:
				// Structural graph: record the target sparsity for the
				// cost model without weight data to prune.
				n.Sparsity = fraction
			}
		}
	}
}
