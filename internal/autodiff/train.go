package autodiff

import (
	"fmt"
	"math"

	"edgebench/internal/graph"
	"edgebench/internal/refexec"
	"edgebench/internal/tensor"
)

// CrossEntropy runs a forward pass, computes -log p[label] against the
// graph's softmax output, and back-propagates. The graph output must be
// a softmax node (classifier head).
func CrossEntropy(g *graph.Graph, input *tensor.Tensor, label int) (loss float64, grads *Gradients, err error) {
	if g.Output.Kind != graph.OpSoftmax {
		return 0, nil, fmt.Errorf("autodiff: cross-entropy needs a softmax output, graph ends in %v", g.Output.Kind)
	}
	classes := g.Output.OutShape[0]
	if label < 0 || label >= classes {
		return 0, nil, fmt.Errorf("autodiff: label %d out of range [0,%d)", label, classes)
	}
	// Softmax + CE fuse: dLoss/dLogits = p - onehot. Seeding the softmax
	// node's *output* gradient with that and letting the softmax backward
	// rule run would double-apply the Jacobian, so we instead seed
	// dLoss/dSoftmaxOutput = -onehot/p (the direct CE derivative); the
	// softmax rule then reproduces p - onehot exactly. The probabilities
	// come from the forward pass the backward pass reads.
	values, err := forward(g, input)
	if err != nil {
		return 0, nil, err
	}
	p := float64(values[g.Output].Data[label])
	if p < 1e-12 {
		p = 1e-12
	}
	loss = -math.Log(p)

	seed := tensor.New(classes)
	seed.Data[label] = float32(-1 / p)
	grads, err = backprop(g, values, seed)
	return loss, grads, err
}

// Schedule maps a 0-based step index to a learning rate.
type Schedule func(step int) float64

// ConstantLR keeps the rate fixed.
func ConstantLR(lr float64) Schedule {
	return func(int) float64 { return lr }
}

// StepDecay multiplies the base rate by factor every interval steps —
// the classic ImageNet recipe.
func StepDecay(base, factor float64, interval int) Schedule {
	if interval < 1 {
		interval = 1
	}
	return func(step int) float64 {
		return base * math.Pow(factor, float64(step/interval))
	}
}

// CosineDecay anneals from base to floor over horizon steps.
func CosineDecay(base, floor float64, horizon int) Schedule {
	if horizon < 1 {
		horizon = 1
	}
	return func(step int) float64 {
		if step >= horizon {
			return floor
		}
		frac := float64(step) / float64(horizon)
		return floor + (base-floor)*(1+math.Cos(math.Pi*frac))/2
	}
}

// SGD is a stochastic-gradient-descent optimizer with classical
// momentum, optional L2 weight decay, and a pluggable learning-rate
// schedule, matching the frameworks' default training loop.
type SGD struct {
	LR       float64
	Momentum float64
	// WeightDecay is the L2 coefficient applied to weights (not biases
	// or batch-norm affine terms, per common practice).
	WeightDecay float64
	// Schedule overrides LR when set; it receives the step counter.
	Schedule Schedule

	step  int
	velW  map[*graph.Node]*tensor.Tensor
	velB  map[*graph.Node][]float32
	velG  map[*graph.Node][]float32
	velBe map[*graph.Node][]float32
}

// NewSGD constructs the optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{
		LR: lr, Momentum: momentum,
		velW:  map[*graph.Node]*tensor.Tensor{},
		velB:  map[*graph.Node][]float32{},
		velG:  map[*graph.Node][]float32{},
		velBe: map[*graph.Node][]float32{},
	}
}

// CurrentLR returns the rate the next Step will use.
func (o *SGD) CurrentLR() float64 {
	if o.Schedule != nil {
		return o.Schedule(o.step)
	}
	return o.LR
}

// Step applies one parameter update from accumulated gradients.
func (o *SGD) Step(g *graph.Graph, grads *Gradients) {
	lr, mu := float32(o.CurrentLR()), float32(o.Momentum)
	o.step++
	wd := float32(o.WeightDecay)
	for n, dW := range grads.Weights {
		v, ok := o.velW[n]
		if !ok {
			v = tensor.New(dW.Shape...)
			o.velW[n] = v
		}
		for i := range dW.Data {
			grad := dW.Data[i] + wd*n.Weights.Data[i]
			v.Data[i] = mu*v.Data[i] - lr*grad
			n.Weights.Data[i] += v.Data[i]
		}
	}
	stepVec := func(vel map[*graph.Node][]float32, n *graph.Node, params, d []float32) {
		v, ok := vel[n]
		if !ok {
			v = make([]float32, len(d))
			vel[n] = v
		}
		for i := range d {
			v[i] = mu*v[i] - lr*d[i]
			params[i] += v[i]
		}
	}
	for n, dB := range grads.Bias {
		stepVec(o.velB, n, n.Bias, dB)
	}
	for n, dG := range grads.Gamma {
		stepVec(o.velG, n, n.BN.Gamma, dG)
	}
	for n, dBe := range grads.Beta {
		stepVec(o.velBe, n, n.BN.Beta, dBe)
	}
	_ = g
}

// Example is one labelled training sample.
type Example struct {
	Input *tensor.Tensor
	Label int
}

// TrainEpoch runs one pass of SGD over the examples, returning the mean
// loss and accuracy.
func TrainEpoch(g *graph.Graph, opt *SGD, examples []Example) (meanLoss, accuracy float64, err error) {
	if len(examples) == 0 {
		return 0, 0, fmt.Errorf("autodiff: no training examples")
	}
	correct := 0
	for _, ex := range examples {
		loss, grads, err := CrossEntropy(g, ex.Input, ex.Label)
		if err != nil {
			return 0, 0, err
		}
		meanLoss += loss
		opt.Step(g, grads)

		if pred, err := Predict(g, ex.Input); err == nil && pred == ex.Label {
			correct++
		}
	}
	return meanLoss / float64(len(examples)), float64(correct) / float64(len(examples)), nil
}

// Predict returns the argmax class for the input, on the reference
// interpreter training runs.
func Predict(g *graph.Graph, input *tensor.Tensor) (int, error) {
	values, err := refexec.Run(g, input)
	if err != nil {
		return 0, err
	}
	best, arg := float32(-1), 0
	for i, p := range values[g.Output].Data {
		if p > best {
			best, arg = p, i
		}
	}
	return arg, nil
}
