package autodiff_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"edgebench/internal/autodiff"
	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/refexec"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

// forward is g's output on the reference interpreter: the function
// training runs, and so the one its gradients must be checked against.
func forward(t *testing.T, g *graph.Graph, input *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	vals, err := refexec.Run(g, input)
	if err != nil {
		t.Fatal(err)
	}
	return vals[g.Output]
}

// loss evaluates a scalar test loss (sum of squared outputs / 2) so that
// dLoss/dOutput = output, giving a convenient seed for checking.
func loss(t *testing.T, g *graph.Graph, input *tensor.Tensor) float64 {
	t.Helper()
	var s float64
	for _, v := range forward(t, g, input).Data {
		s += float64(v) * float64(v) / 2
	}
	return s
}

func seedGrad(t *testing.T, g *graph.Graph, input *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	return forward(t, g, input).Clone()
}

// checkGrad compares an analytic derivative against central finite
// differences of the test loss.
func checkGrad(t *testing.T, g *graph.Graph, input *tensor.Tensor, analytic float64, bump *float32, name string) {
	t.Helper()
	const eps = 1e-3
	orig := *bump
	*bump = orig + eps
	up := loss(t, g, input)
	*bump = orig - eps
	down := loss(t, g, input)
	*bump = orig
	numeric := (up - down) / (2 * eps)
	tol := 1e-2*math.Max(math.Abs(numeric), math.Abs(analytic)) + 2e-3
	if math.Abs(numeric-analytic) > tol {
		t.Errorf("%s: analytic %.6f vs numeric %.6f", name, analytic, numeric)
	}
}

// gradCheckNet builds nets exercising each op kind and verifies every
// parameter and input derivative against finite differences.
func gradCheckAll(t *testing.T, g *graph.Graph, input *tensor.Tensor) {
	t.Helper()
	grads, err := autodiff.Backprop(g, input, seedGrad(t, g, input))
	if err != nil {
		t.Fatal(err)
	}
	// Input gradients (sample a few positions).
	for _, i := range []int{0, len(input.Data) / 2, len(input.Data) - 1} {
		checkGrad(t, g, input, float64(grads.Input.Data[i]), &input.Data[i], "input")
	}
	// Parameter gradients (sample positions per node).
	for _, n := range g.Nodes {
		if dW, ok := grads.Weights[n]; ok {
			for _, i := range []int{0, len(dW.Data) / 2, len(dW.Data) - 1} {
				checkGrad(t, g, input, float64(dW.Data[i]), &n.Weights.Data[i], n.Name+".W")
			}
		}
		if dB, ok := grads.Bias[n]; ok {
			checkGrad(t, g, input, float64(dB[0]), &n.Bias[0], n.Name+".b")
		}
		if dG, ok := grads.Gamma[n]; ok {
			checkGrad(t, g, input, float64(dG[0]), &n.BN.Gamma[0], n.Name+".gamma")
			checkGrad(t, g, input, float64(grads.Beta[n][0]), &n.BN.Beta[0], n.Name+".beta")
		}
	}
}

func TestGradConvDenseChain(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 3}, 2, 6, 6)
	b.Conv2D("conv", 3, 3, 1, 1, true)
	b.ReLU("relu")
	b.MaxPool("pool", 2, 2, 0)
	b.Dense("fc", 4, true)
	g := b.Build()
	in := tensor.New(2, 6, 6).Randomize(stats.NewRNG(1), 1)
	gradCheckAll(t, g, in)
}

func TestGradBatchNormAndGAP(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 5}, 2, 5, 5)
	b.Conv2D("conv", 4, 3, 1, 1, false)
	b.BatchNorm("bn")
	b.Tanh("tanh")
	b.GlobalAvgPool("gap")
	g := b.Build()
	in := tensor.New(2, 5, 5).Randomize(stats.NewRNG(2), 1)
	gradCheckAll(t, g, in)
}

func TestGradResidualAndConcat(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 7}, 2, 4, 4)
	trunk := b.Current()
	l := b.Conv2D("l", 2, 3, 1, 1, true)
	r := b.From(trunk).Conv2D("r", 2, 1, 1, 0, true)
	b.Add("add", l, r)
	s := b.Sigmoid("sig")
	b.From(trunk).Conv2D("c2", 3, 1, 1, 0, true)
	cat := b.Concat("cat", s, b.Current())
	b.From(cat).AvgPool("avg", 2, 2, 0)
	b.Flatten("flat")
	g := b.Build()
	in := tensor.New(2, 4, 4).Randomize(stats.NewRNG(3), 1)
	gradCheckAll(t, g, in)
}

func TestGradDepthwiseLeakyUpsamplePad(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 11}, 3, 4, 4)
	b.DepthwiseConv2D("dw", 3, 1, 1, true)
	b.LeakyReLU("leaky", 0.1)
	b.Upsample("up", 2)
	b.Pad("pad", 1)
	b.Conv2D("pw", 2, 1, 1, 0, true)
	g := b.Build()
	in := tensor.New(3, 4, 4).Randomize(stats.NewRNG(4), 1)
	gradCheckAll(t, g, in)
}

// TestGradDepthwiseAsymmetricPad: a depthwise 3x3 padded on H only — a
// geometry no builder makes, but an imported graph can — differentiates
// the function the forward computes, per-axis padding included.
func TestGradDepthwiseAsymmetricPad(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 19}, 2, 5, 5)
	dw := b.DepthwiseConv2D("dw", 3, 1, 0, true)
	g := b.Build()
	dw.Attrs = graph.Attrs{Stride: 1, PadH: 1, PadW: 0, Asym: true}
	dw.OutShape = tensor.Shape{2, 5, 3}
	in := tensor.New(2, 5, 5).Randomize(stats.NewRNG(7), 1)
	gradCheckAll(t, g, in)
}

func TestGradGroupedConv(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 13}, 4, 4, 4)
	b.Conv2DG("gc", 4, 3, 1, 1, 2, true)
	b.ReLU6("r6")
	g := b.Build()
	in := tensor.New(4, 4, 4).Randomize(stats.NewRNG(5), 1)
	gradCheckAll(t, g, in)
}

func TestGradRectConv(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 17}, 2, 5, 5)
	b.Conv2DRect("rc", 3, 1, 3, 1, 0, 1, true)
	g := b.Build()
	in := tensor.New(2, 5, 5).Randomize(stats.NewRNG(6), 1)
	gradCheckAll(t, g, in)
}

func TestCrossEntropyGradient(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 19}, 2, 4, 4)
	b.Conv2D("conv", 3, 3, 1, 1, true)
	b.ReLU("relu")
	b.Dense("fc", 3, true)
	b.Softmax("prob")
	g := b.Build()
	in := tensor.New(2, 4, 4).Randomize(stats.NewRNG(7), 1)

	const label = 1
	lossVal, grads, err := autodiff.CrossEntropy(g, in, label)
	if err != nil {
		t.Fatal(err)
	}
	if lossVal <= 0 {
		t.Fatalf("loss = %v", lossVal)
	}
	// Finite-difference the CE loss wrt a few conv weights.
	conv := g.Nodes[1]
	ceLoss := func() float64 {
		l, _, err := autodiff.CrossEntropy(g, in, label)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	for _, i := range []int{0, 10, len(conv.Weights.Data) - 1} {
		const eps = 1e-3
		orig := conv.Weights.Data[i]
		conv.Weights.Data[i] = orig + eps
		up := ceLoss()
		conv.Weights.Data[i] = orig - eps
		down := ceLoss()
		conv.Weights.Data[i] = orig
		numeric := (up - down) / (2 * eps)
		analytic := float64(grads.Weights[conv].Data[i])
		if math.Abs(numeric-analytic) > 1e-2*math.Abs(numeric)+2e-3 {
			t.Errorf("CE dW[%d]: analytic %v vs numeric %v", i, analytic, numeric)
		}
	}
}

func TestCrossEntropyErrors(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 2}, 1, 2, 2)
	b.Dense("fc", 3, true)
	g := b.Build() // no softmax head
	in := tensor.New(1, 2, 2)
	if _, _, err := autodiff.CrossEntropy(g, in, 0); err == nil {
		t.Fatal("missing softmax should error")
	}
	b2 := nn.NewBuilder("g2", nn.Options{Materialize: true, Seed: 2}, 1, 2, 2)
	b2.Dense("fc", 3, true)
	b2.Softmax("p")
	g2 := b2.Build()
	if _, _, err := autodiff.CrossEntropy(g2, in, 9); err == nil {
		t.Fatal("out-of-range label should error")
	}
}

func TestBackpropRejectsLoweredGraphs(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 2}, 1, 4, 4)
	b.Conv2D("c", 2, 3, 1, 1, false)
	b.BatchNorm("bn")
	b.ReLU("r")
	g := b.Build()
	opt := g.Clone()
	graph.FoldBN(opt)
	graph.FusePatterns(opt)
	in := tensor.New(1, 4, 4)
	seed := tensor.New(2, 4, 4)
	if _, err := autodiff.Backprop(opt, in, seed); err == nil {
		t.Fatal("fused graph must be rejected")
	}
	q := g.Clone()
	graph.QuantizeINT8(q)
	if _, err := autodiff.Backprop(q, in, seed); err == nil {
		t.Fatal("quantized graph must be rejected")
	}
	structural := nn.NewBuilder("s", nn.Options{}, 1, 4, 4)
	structural.Conv2D("c", 2, 3, 1, 1, false)
	if _, err := autodiff.Backprop(structural.Build(), in, tensor.New(2, 4, 4)); err == nil {
		t.Fatal("structural graph must be rejected")
	}
}

// TestTrainingLearnsSyntheticTask is the end-to-end training test: a
// small CNN must fit a linearly-separable synthetic image task.
func TestTrainingLearnsSyntheticTask(t *testing.T) {
	b := nn.NewBuilder("tiny", nn.Options{Materialize: true, Seed: 21}, 1, 8, 8)
	b.Conv2D("conv1", 4, 3, 2, 1, true)
	b.ReLU("relu1")
	b.GlobalAvgPool("gap")
	b.Dense("fc", 2, true)
	b.Softmax("prob")
	g := b.Build()

	// Class 0: bright top half; class 1: bright bottom half.
	rng := stats.NewRNG(33)
	var examples []autodiff.Example
	for i := 0; i < 60; i++ {
		in := tensor.New(1, 8, 8)
		label := i % 2
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				v := 0.1 * rng.Float32()
				if (label == 0 && y < 4) || (label == 1 && y >= 4) {
					v += 1
				}
				in.Set(v, 0, y, x)
			}
		}
		examples = append(examples, autodiff.Example{Input: in, Label: label})
	}

	opt := autodiff.NewSGD(0.05, 0.9)
	first, _, err := autodiff.TrainEpoch(g, opt, examples)
	if err != nil {
		t.Fatal(err)
	}
	var last, acc float64
	for e := 0; e < 14; e++ {
		last, acc, err = autodiff.TrainEpoch(g, opt, examples)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", first, last)
	}
	if acc < 0.95 {
		t.Fatalf("accuracy %.2f after training; task is separable", acc)
	}
}

func TestTrainEpochEmpty(t *testing.T) {
	b := nn.NewBuilder("g", nn.Options{Materialize: true, Seed: 2}, 1, 2, 2)
	b.Dense("fc", 2, true)
	b.Softmax("p")
	g := b.Build()
	if _, _, err := autodiff.TrainEpoch(g, autodiff.NewSGD(0.1, 0), nil); err == nil {
		t.Fatal("empty epoch should error")
	}
}

// TestGradAttributeSweep checks the gradients of every spatial op
// autodiff differentiates — conv, depthwise, max and average pooling —
// across stride 1 and 2, symmetric and per-axis (Asym) padding, square
// and rectangular kernels, and one and two groups where the op has
// groups (conv). Every case ends in a dense head, so dense is checked
// behind each of them. Pools take one square kernel and one padding for
// both axes (tensor.PoolSpec has no per-axis form), so they sweep
// stride, padding and kernel size instead. Weights and inputs are
// seeded; the loss comes from refexec.Run, like every check here.
func TestGradAttributeSweep(t *testing.T) {
	const c, h, w = 4, 6, 6
	seed := int64(40)
	run := func(name string, build func(b *nn.Builder) *graph.Node, shape func(n *graph.Node, rng *rand.Rand)) {
		seed++
		t.Run(name, func(t *testing.T) {
			rng := stats.NewRNG(seed)
			b := nn.NewBuilder("sweep", nn.Options{Materialize: true, Seed: seed}, c, h, w)
			n := build(b)
			if shape != nil {
				shape(n, rng)
				out, err := graph.InferShapeE(n)
				if err != nil {
					t.Fatal(err)
				}
				n.OutShape = out
			}
			b.From(n).Dense("fc", 3, true)
			g := b.Build()
			gradCheckAll(t, g, tensor.New(c, h, w).Randomize(rng, 1))
		})
	}
	for _, op := range []string{"conv", "depthwise"} {
		for _, stride := range []int{1, 2} {
			for _, asym := range []bool{false, true} {
				for _, rect := range []bool{false, true} {
					for _, groups := range []int{1, 2} {
						if op == "depthwise" && groups > 1 {
							continue // one filter per channel is its only grouping
						}
						name := fmt.Sprintf("%s/stride%d/asym=%v/rect=%v/groups%d", op, stride, asym, rect, groups)
						run(name, func(b *nn.Builder) *graph.Node {
							if op == "conv" {
								return b.Conv2DG("op", c, 3, stride, 1, groups, true)
							}
							return b.DepthwiseConv2D("op", 3, stride, 1, true)
						}, func(n *graph.Node, rng *rand.Rand) {
							if asym {
								n.Attrs.PadH, n.Attrs.PadW, n.Attrs.Asym = 1, 0, true
							}
							if rect {
								n.WShape = append(n.WShape[:len(n.WShape)-1:len(n.WShape)-1], 2) // kh 3, kw 2
								n.Weights = tensor.New(n.WShape...).Randomize(rng, 0.5)
							}
						})
					}
				}
			}
		}
	}
	for _, pool := range []string{"maxpool", "avgpool"} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, k := range []int{2, 3} {
					run(fmt.Sprintf("%s/stride%d/pad%d/k%d", pool, stride, pad, k), func(b *nn.Builder) *graph.Node {
						if pool == "maxpool" {
							return b.MaxPool("op", k, stride, pad)
						}
						return b.AvgPool("op", k, stride, pad)
					}, nil)
				}
			}
		}
	}
}
