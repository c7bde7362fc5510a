// Package autodiff implements reverse-mode automatic differentiation
// over the graph IR — the capability that makes TensorFlow, PyTorch,
// Caffe, and DarkNet *training* frameworks in the paper's taxonomy
// (§III-A: "automatic differentiation eases the design of new models
// since backpropagation operations are automatically defined").
//
// Gradients are computed against the un-lowered training graph (before
// deployment fusion/quantization — frameworks train first and optimize
// for inference afterwards); graphs carrying fused activations or
// reduced-precision weights are rejected. Batch-norm differentiates in
// inference mode (frozen statistics), i.e. fine-tuning semantics.
package autodiff

import (
	"fmt"

	"edgebench/internal/graph"
	"edgebench/internal/refexec"
	"edgebench/internal/tensor"
)

// Gradients holds the backward pass's outputs.
type Gradients struct {
	// Input is dLoss/dInput.
	Input *tensor.Tensor
	// Weights maps weight-bearing nodes to dLoss/dWeights.
	Weights map[*graph.Node]*tensor.Tensor
	// Bias maps biased nodes to dLoss/dBias.
	Bias map[*graph.Node][]float32
	// Gamma and Beta map batch-norm nodes to their affine gradients.
	Gamma map[*graph.Node][]float32
	Beta  map[*graph.Node][]float32
}

// Backprop runs a forward pass of g on input, seeds the output gradient
// with outGrad (same shape as the graph output), and back-propagates to
// every parameter and the input.
func Backprop(g *graph.Graph, input *tensor.Tensor, outGrad *tensor.Tensor) (*Gradients, error) {
	values, err := forward(g, input)
	if err != nil {
		return nil, err
	}
	return backprop(g, values, outGrad)
}

// forward checks that g is trainable and runs it on the reference
// interpreter, which keeps every node's value for the backward rules.
// Training runs no engine: the engine's compiled programs are for
// inference, and the reference is the function the engine is checked
// against.
func forward(g *graph.Graph, input *tensor.Tensor) (map[*graph.Node]*tensor.Tensor, error) {
	if err := trainable(g); err != nil {
		return nil, err
	}
	return refexec.Run(g, input)
}

// backprop back-propagates outGrad through the values of a forward pass.
func backprop(g *graph.Graph, values map[*graph.Node]*tensor.Tensor, outGrad *tensor.Tensor) (*Gradients, error) {
	input := values[g.Input]
	if !outGrad.Shape.Equal(g.Output.OutShape) {
		return nil, fmt.Errorf("autodiff: output grad shape %v, want %v", outGrad.Shape, g.Output.OutShape)
	}

	grads := map[*graph.Node]*tensor.Tensor{g.Output: outGrad.Clone()}
	out := &Gradients{
		Weights: map[*graph.Node]*tensor.Tensor{},
		Bias:    map[*graph.Node][]float32{},
		Gamma:   map[*graph.Node][]float32{},
		Beta:    map[*graph.Node][]float32{},
	}

	// Reverse topological order: Nodes is topologically sorted.
	for i := len(g.Nodes) - 1; i >= 0; i-- {
		n := g.Nodes[i]
		dOut, ok := grads[n]
		if !ok {
			continue // node does not influence the output
		}
		if n.Kind == graph.OpInput {
			out.Input = dOut
			continue
		}
		dIns, err := backward(n, values, dOut, out)
		if err != nil {
			return nil, fmt.Errorf("autodiff: node %s: %w", n, err)
		}
		for j, in := range n.Inputs {
			if dIns[j] == nil {
				continue
			}
			if acc, ok := grads[in]; ok {
				for k, v := range dIns[j].Data {
					acc.Data[k] += v
				}
			} else {
				grads[in] = dIns[j]
			}
		}
		if n != g.Output {
			delete(grads, n) // free as we go
		}
	}
	if out.Input == nil {
		out.Input = tensor.New(input.Shape...)
	}
	return out, nil
}

// trainable verifies the graph is an un-lowered training graph with
// materialized parameters.
func trainable(g *graph.Graph) error {
	for _, n := range g.Nodes {
		if n.Activation != 0 {
			return fmt.Errorf("autodiff: node %s carries a fused activation; train before deployment lowering", n)
		}
		if n.DType != tensor.FP32 {
			return fmt.Errorf("autodiff: node %s is %s; training requires fp32", n, n.DType)
		}
		if !n.Materialized() {
			return fmt.Errorf("autodiff: node %s has "+graph.ErrNotMaterialized+"; build with Materialize", n)
		}
		switch n.Kind {
		case graph.OpConv3D, graph.OpMaxPool3D, graph.OpLSTM:
			return fmt.Errorf("autodiff: %s is inference-only in this engine (video/recurrent training out of scope)", n.Kind)
		}
	}
	return nil
}
