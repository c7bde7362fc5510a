package exchange_test

import (
	"math"
	"testing"
	"testing/quick"

	"edgebench/internal/exchange"
	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

// randomCNN builds a random-but-valid materialized CNN from a seed:
// random depth, channel widths, strides, optional BN/activation/pool per
// stage, optional residual, random head. Used to fuzz the interchange
// round trip and the optimization passes far beyond the fixed zoo.
func randomCNN(seed int64) *graph.Graph {
	rng := stats.NewRNG(seed)
	b := nn.NewBuilder("fuzz", nn.Options{Materialize: true, Seed: seed}, 2+rng.Intn(2), 9, 9)
	stages := 1 + rng.Intn(3)
	for s := 0; s < stages; s++ {
		ch := 2 + rng.Intn(6)
		k := 1 + 2*rng.Intn(2) // 1 or 3
		withBias := rng.Intn(2) == 0
		name := string(rune('a' + s))
		pre := b.Current()
		b.Conv2D("conv_"+name, ch, k, 1, k/2, withBias)
		if rng.Intn(2) == 0 {
			b.BatchNorm("bn_" + name)
		}
		switch rng.Intn(4) {
		case 0:
			b.ReLU("relu_" + name)
		case 1:
			b.ReLU6("relu6_" + name)
		case 2:
			b.LeakyReLU("leaky_"+name, 0.1)
		case 3:
			b.Sigmoid("sig_" + name)
		}
		// Occasional residual via 1x1 projection.
		if rng.Intn(3) == 0 {
			main := b.Current()
			proj := b.From(pre).Conv2D("proj_"+name, ch, 1, 1, 0, false)
			b.Add("res_"+name, main, proj)
		}
		if rng.Intn(3) == 0 {
			b.MaxPool("pool_"+name, 2, 2, 0)
		}
	}
	b.GlobalAvgPool("gap")
	b.Dense("fc", 2+rng.Intn(6), true)
	b.Softmax("prob")
	return b.Build()
}

// TestFuzzRoundTripExecutes round-trips random CNNs with weights and
// checks bit-identical execution.
func TestFuzzRoundTripExecutes(t *testing.T) {
	f := func(seed int64) bool {
		g := randomCNN(seed)
		data, err := exchange.Export(g, exchange.Options{IncludeWeights: true})
		if err != nil {
			return false
		}
		back, err := exchange.Import(data)
		if err != nil {
			return false
		}
		in := tensor.New(g.Input.OutShape...).Randomize(stats.NewRNG(seed+1), 1)
		var exec graph.Executor
		want, err := exec.Run(g, in.Clone())
		if err != nil {
			return false
		}
		got, err := exec.Run(back, in.Clone())
		if err != nil {
			return false
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzOptimizationPipeline applies the full deployment pipeline to
// random CNNs and checks semantics within int8 tolerance plus structural
// invariants.
func TestFuzzOptimizationPipeline(t *testing.T) {
	f := func(seed int64) bool {
		g := randomCNN(seed)
		in := tensor.New(g.Input.OutShape...).Randomize(stats.NewRNG(seed+2), 1)
		var exec graph.Executor
		want, err := exec.Run(g, in.Clone())
		if err != nil {
			return false
		}
		opt := g.Clone()
		graph.FoldBN(opt)
		graph.FusePatterns(opt)
		graph.EliminateDead(opt)
		if err := opt.Validate(); err != nil {
			return false
		}
		if opt.NumOps() > g.NumOps() {
			return false
		}
		got, err := exec.Run(opt, in.Clone())
		if err != nil {
			return false
		}
		for i := range want.Data {
			if math.Abs(float64(want.Data[i]-got.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
