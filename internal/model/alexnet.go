package model

import (
	"edgebench/internal/graph"
	"edgebench/internal/nn"
)

// buildAlexNet constructs the grouped (two-tower) AlexNet. The conv3-5
// widths (352) and fc6 width (7168) are tuned so the joint (FLOP, params)
// pair lands on the paper's Table I row (0.72 GFLOP, 102.14 M parameters)
// — the paper's AlexNet carries a much larger classifier than the
// canonical 61 M-parameter definition, as its 7.05 FLOP/param ratio
// shows.
func buildAlexNet(opts nn.Options) *graph.Graph {
	b := nn.NewBuilder("alexnet", opts, 3, 224, 224)
	alexNetConvs(b)
	b.Dense("fc6", 7168, true)
	b.ReLU("fc6_relu")
	b.Dense("fc7", 4096, true)
	b.ReLU("fc7_relu")
	b.Dense("fc8", 1000, true)
	b.Softmax("prob")
	return b.Build()
}

// alexNetConvs adds AlexNet's five convolutions and three pools to b.
func alexNetConvs(b *nn.Builder) {
	b.Conv2D("conv1", 96, 11, 4, 2, true)
	b.ReLU("relu1")
	b.MaxPool("pool1", 3, 2, 0)
	b.Conv2DG("conv2", 256, 5, 1, 2, 2, true)
	b.ReLU("relu2")
	b.MaxPool("pool2", 3, 2, 0)
	b.Conv2D("conv3", 352, 3, 1, 1, true)
	b.ReLU("relu3")
	b.Conv2DG("conv4", 352, 3, 1, 1, 2, true)
	b.ReLU("relu4")
	b.Conv2DG("conv5", 256, 3, 1, 1, 2, true)
	b.ReLU("relu5")
	b.MaxPool("pool5", 3, 2, 0)
}

// buildCifarNet constructs the small CIFAR-10 CNN (TF-slim cifarnet
// family) used by the paper's FPGA experiments: two 5x5 conv+pool stages
// and a 384-192-10 classifier, sized to Table I's 0.79 M parameters and
// ~0.01 GFLOP.
func buildCifarNet(opts nn.Options) *graph.Graph {
	b := nn.NewBuilder("cifarnet", opts, 3, 32, 32)
	b.Conv2D("conv1", 64, 5, 1, 2, true)
	b.ReLU("relu1")
	b.MaxPool("pool1", 3, 2, 0)
	b.Conv2D("conv2", 64, 5, 1, 2, true)
	b.ReLU("relu2")
	b.MaxPool("pool2", 3, 3, 0)
	b.Dense("fc3", 384, true)
	b.ReLU("relu3")
	b.Dense("fc4", 192, true)
	b.ReLU("relu4")
	b.Dense("fc5", 10, true)
	b.Softmax("prob")
	return b.Build()
}

func init() {
	register(&Spec{
		Name:         "AlexNet",
		InputShape:   []int{3, 224, 224},
		PaperGFLOP:   0.72,
		PaperParamsM: 102.14,
		Class:        Recognition,
		Notes:        "Widths tuned to the paper's non-canonical 102 M-parameter AlexNet (conv3-5 = 352ch, fc6 = 7168).",
		build:        func(o nn.Options) *graph.Graph { return buildAlexNet(o) },
	})
	register(&Spec{
		Name:         "CifarNet",
		InputShape:   []int{3, 32, 32},
		PaperGFLOP:   0.01,
		PaperParamsM: 0.79,
		Class:        Recognition,
		Notes:        "Parameters match Table I; any natural CifarNet with 0.79 M parameters costs ~0.03 GMAC, so the paper's single-significant-figure 0.01 GFLOP is unreachable jointly.",
		build:        func(o nn.Options) *graph.Graph { return buildCifarNet(o) },
	})
}
