package graph

import "edgebench/internal/tensor"

// PrepackWeights packs every GEMM-executable node's weight operand into
// the blocked-panel layout the GEMM/QGEMM microkernels consume and
// caches it on the node, so repeated forwards skip the per-call
// packPanel traversal. It is the session-open half of the paper's
// ahead-of-time layout planning: serving.NewEngine runs it on the
// served graph, the opt pass manager runs it as the final O1/O2 pass,
// and pipeline stage workers inherit it through their stage engines.
//
// What gets packed is what bind would then use:
//
//   - Ungrouped FP32 Conv2D packs Weights (transposed to [rows, Cout])
//     unless the layer takes the zero-skipping GEMM (weights sparse
//     enough on a layer large enough), which a fixed panel layout cannot
//     reproduce — tensor.PackConvWeights, told the layer's output plane,
//     returns nil exactly there and the node keeps the unpacked path.
//   - Quantized Conv2D/Dense pack QWeights whenever bind selects an int8
//     kernel; nodes the int8 path rejects (absorbed-BN epilogues,
//     unfusable activations) run FP32 and get FP32 panels for their
//     dequantized shadow instead.
//   - FP32 Dense stays unpacked on purpose: its matvec kernel
//     accumulates in an order the blocked GEMM cannot reproduce
//     bitwise, and a 1×N GEMM wins nothing over the matvec.
//
// The call is idempotent (already-packed nodes are skipped), which is
// what lets the opt pass reach fixpoint. It returns the number of
// nodes newly packed.
func PrepackWeights(g *Graph) int {
	packed := 0
	for _, n := range g.Nodes {
		if prepackNode(n) {
			packed++
		}
	}
	return packed
}

// prepackNode packs one node's weights if its kernel has a packed twin
// and runs unpacked so far; it reports whether it packed anything.
func prepackNode(n *Node) bool {
	// A node bind refuses has no kernel to pack for.
	k, _ := bind(n)
	return k.pack != nil && k.pack(n)
}

func packConvQ(n *Node) bool {
	n.PackedQ = tensor.PackQConvWeights(n.QWeights)
	return true
}

func packDenseQ(n *Node) bool {
	n.PackedQ = tensor.PackQDenseWeights(n.QWeights)
	return true
}

func packConv(n *Node) bool {
	if n.Weights == nil {
		return false // structural-only graph
	}
	n.Packed = tensor.PackConvWeights(n.Weights, n.OutShape[1]*n.OutShape[2])
	return n.Packed != nil
}
