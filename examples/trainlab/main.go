// Trainlab walks the full lifecycle the paper's framework taxonomy
// implies (§III): *train* a model with a training framework (automatic
// differentiation, SGD), *export* it through the interchange format,
// then *deploy* it through an inference framework's optimization
// pipeline and compare the deployment targets.
//
// The model is a small CNN trained on a synthetic two-class image task
// (bright-top vs bright-bottom frames from the trace generator), so the
// whole loop runs in a couple of seconds on a laptop.
//
// Run with: go run ./examples/trainlab
package main

import (
	"fmt"
	"log"

	"edgebench/internal/autodiff"
	"edgebench/internal/core"
	"edgebench/internal/exchange"
	"edgebench/internal/graph"
	"edgebench/internal/nn"
	graphopt "edgebench/internal/opt"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

func main() {
	// 1. Define the model the way a PyTorch user would.
	b := nn.NewBuilder("doorbell-net", nn.Options{Materialize: true, Seed: 1}, 1, 16, 16)
	b.Conv2D("conv1", 6, 3, 2, 1, true)
	b.ReLU("relu1")
	b.Conv2D("conv2", 12, 3, 2, 1, true)
	b.ReLU("relu2")
	b.GlobalAvgPool("gap")
	b.Dense("fc", 2, true)
	b.Softmax("prob")
	g := b.Build()

	// 2. Synthesize a labelled dataset: class 0 = bright top half,
	// class 1 = bright bottom half, plus noise.
	rng := stats.NewRNG(7)
	dataset := func(n int, seedBase int64) []autodiff.Example {
		var out []autodiff.Example
		for i := 0; i < n; i++ {
			in := tensor.New(1, 16, 16)
			label := i % 2
			for y := 0; y < 16; y++ {
				for x := 0; x < 16; x++ {
					v := 0.2 * rng.Float32()
					if (label == 0 && y < 8) || (label == 1 && y >= 8) {
						v += 0.8
					}
					in.Set(v, 0, y, x)
				}
			}
			out = append(out, autodiff.Example{Input: in, Label: label})
		}
		return out
	}
	train := dataset(80, 100)
	test := dataset(40, 900)

	// 3. Train with SGD + momentum.
	opt := autodiff.NewSGD(0.05, 0.9)
	for epoch := 1; epoch <= 10; epoch++ {
		loss, acc, err := autodiff.TrainEpoch(g, opt, train)
		if err != nil {
			log.Fatal(err)
		}
		if epoch == 1 || epoch%5 == 0 {
			fmt.Printf("epoch %2d: loss %.4f, train accuracy %.0f%%\n", epoch, loss, acc*100)
		}
	}
	correct := 0
	for _, ex := range test {
		if pred, err := autodiff.Predict(g, ex.Input); err == nil && pred == ex.Label {
			correct++
		}
	}
	fmt.Printf("held-out accuracy: %d/%d\n\n", correct, len(test))

	// 4. Export through the interchange format (weights included) and
	// re-import — the ONNX-style hop between training and deployment.
	blob, err := exchange.Export(g, exchange.Options{IncludeWeights: true})
	if err != nil {
		log.Fatal(err)
	}
	deployed, err := exchange.Import(blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exchange blob: %.1f KB; re-imported %d ops, %d params\n\n",
		float64(len(blob))/1024, deployed.NumOps(), deployed.Params())

	// 5. Deployment study: lower the trained graph with each inference
	// pipeline and check INT8 keeps predictions intact while shrinking
	// the graph.
	sample := test[0].Input
	ref, err := (&graph.Executor{}).Run(deployed, sample)
	if err != nil {
		log.Fatal(err)
	}
	lowered := deployed.Clone()
	graphopt.FoldAndFuse(lowered)
	graphopt.QuantizeINT8(lowered)
	got, err := (&graph.Executor{}).Run(lowered, sample)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployment lowering: %d -> %d ops; class-0 prob %.3f -> %.3f under int8\n\n",
		deployed.NumOps(), lowered.NumOps(), ref.Data[0], got.Data[0])

	// 6. Where would it run? Price the deployed graph on edge targets.
	for _, target := range [][2]string{
		{"TFLite", "RPi3"}, {"PyTorch", "JetsonTX2"}, {"TensorRT", "JetsonNano"},
	} {
		s, err := core.NewFromGraph(lowered, target[0], target[1])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s on %-11s %8.2f ms/inference\n",
			target[0], target[1], s.InferenceSeconds()*1e3)
	}
}
