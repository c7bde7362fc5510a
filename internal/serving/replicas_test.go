package serving_test

import (
	"fmt"
	"sync"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/serving"
	"edgebench/internal/tensor"
)

// TestReplicasShareProgramConcurrently: four replicas of one engine share
// one compiled program — a grouped convolution, a pruned convolution and
// an int8 convolution, each reading its node's weights in place — and run it
// at once. Under -race any write to the shared program is reported, and
// every output must be bit-equal to a zero-value executor's.
func TestReplicasShareProgramConcurrently(t *testing.T) {
	b := nn.NewBuilder("shared", nn.Options{Materialize: true, Seed: 41}, 16, 32, 32)
	b.Conv2DG("gconv", 32, 3, 1, 1, 2, true)
	b.ReLU("relu")
	pruned := b.Conv2D("pruned", 32, 3, 1, 1, true)
	q := b.Conv2D("q", 16, 3, 1, 1, true)
	b.GlobalAvgPool("gap")
	g := b.Build()
	tensor.PruneMagnitude(pruned.Weights, 0.8)
	q.QWeights, q.Weights = tensor.ConvCodes(tensor.QuantizeSymmetric(q.Weights)), nil

	ins := make([]*tensor.Tensor, 6)
	wants := make([]*tensor.Tensor, len(ins))
	for i := range ins {
		ins[i] = tensor.New(16, 32, 32)
		for j := range ins[i].Data {
			ins[i].Data[j] = float32((i*7+j)%23)/11 - 1
		}
		var err error
		if wants[i], err = (&graph.Executor{}).Run(g, ins[i]); err != nil {
			t.Fatal(err)
		}
	}
	const replicas, rounds = 4, 2
	eng, err := serving.NewEngine(g, replicas)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var wg sync.WaitGroup
	errs := make(chan error, replicas)
	for w := 0; w < replicas; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range ins {
					i := (i + w) % len(ins)
					got, err := eng.Infer(ins[i])
					if err != nil {
						errs <- err
						return
					}
					for j := range got.Data {
						if got.Data[j] != wants[i].Data[j] {
							errs <- fmt.Errorf("caller %d, input %d: out[%d] = %v, want %v (bitwise)", w, i, j, got.Data[j], wants[i].Data[j])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	runs := int64(replicas * rounds * len(ins))
	if i8, f32, _ := eng.DispatchCounts(); i8 != runs || f32 != 2*runs {
		t.Fatalf("dispatches int8/fp32 = %d/%d, want %d/%d: one int8 and two FP32 convolutions per run", i8, f32, runs, 2*runs)
	}
}
