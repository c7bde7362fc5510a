package harness

import (
	"fmt"
	"math"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/stats"
	"edgebench/internal/trace"
)

func init() {
	register("ext3", "Extension: numeric fidelity of deployment lowerings (measured, not modeled)", Ext3Fidelity)
}

// Ext3Fidelity measures — with the real inference engine, on real
// numbers — what the deployment optimizations cost in output fidelity:
// for each executable model, it compares the FP32 reference against the
// fused, FP16, and INT8 lowerings over a batch of synthetic inputs,
// reporting top-1 agreement and output error. This grounds the paper's
// Table II optimization story: fusion is exact, FP16 is tight, INT8
// costs a bounded numeric error that the task usually tolerates.
func Ext3Fidelity() (*Report, error) {
	const inputs = 10
	models := []string{"CifarNet", "LSTM-Classifier"}
	t := Table{Header: []string{"Model", "lowering", "top-1 agreement", "mean |Δprob|", "max |Δprob|"}}

	for _, name := range models {
		spec := model.MustGet(name)
		ref := spec.Build(nn.Options{Materialize: true, Seed: 77})

		lowerings := []struct {
			name string
			pass func(*graph.Graph)
		}{
			{"fused", opt.FoldAndFuse},
			{"fp16", opt.CastFP16},
			{"int8/tensor", opt.QuantizeINT8},
			{"int8/channel", opt.QuantizeINT8PerChannel},
			{"fused+int8", func(g *graph.Graph) { opt.FoldAndFuse(g); opt.QuantizeINT8(g) }},
		}
		for _, low := range lowerings {
			g := ref.Clone()
			low.pass(g)
			agree, meanErr, maxErr, err := fidelity(ref, g, spec.InputShape, inputs)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", name, low.name, err)
			}
			t.Rows = append(t.Rows, []string{
				name, low.name,
				fmt.Sprintf("%.0f%%", agree*100),
				fmt.Sprintf("%.2e", meanErr),
				fmt.Sprintf("%.2e", maxErr),
			})
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured over %d synthetic inputs per model with the functional engine", inputs),
		"fusion is numerically exact (BN folding reassociates floats only); INT8 error stays bounded by the scales;",
		"per-channel scales (TFLite's conv scheme) help when channel magnitudes differ — synthetic weights are uniform, so the gap here is small")
	return &Report{ID: "ext3", Title: "Deployment-lowering fidelity", Tables: []Table{t}}, nil
}

// fidelity runs both graphs over n inputs and compares outputs.
func fidelity(ref, lowered *graph.Graph, inputShape []int, n int) (agree, meanErr, maxErr float64, err error) {
	var exec graph.Executor
	var errs []float64
	agreeCount := 0
	for i := 0; i < n; i++ {
		in, err := trace.Generator{Seed: int64(1000 + i)}.Input(inputShape)
		if err != nil {
			return 0, 0, 0, err
		}
		want, err := exec.Run(ref, in.Clone())
		if err != nil {
			return 0, 0, 0, err
		}
		got, err := exec.Run(lowered, in.Clone())
		if err != nil {
			return 0, 0, 0, err
		}
		if argmax(want.Data) == argmax(got.Data) {
			agreeCount++
		}
		for j := range want.Data {
			errs = append(errs, math.Abs(float64(want.Data[j]-got.Data[j])))
		}
	}
	return float64(agreeCount) / float64(n), stats.Mean(errs), stats.Max(errs), nil
}

func argmax(xs []float32) int {
	best, arg := float32(-math.MaxFloat32), 0
	for i, v := range xs {
		if v > best {
			best, arg = v, i
		}
	}
	return arg
}
