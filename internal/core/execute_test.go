package core_test

import (
	"math"
	"testing"

	"edgebench/internal/core"
	"edgebench/internal/graph"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
)

func sessionInput(s *core.Session) *tensor.Tensor {
	in := tensor.New(s.Lowered().Input.OutShape...)
	for i := range in.Data {
		in.Data[i] = float32(math.Sin(float64(i))) * 0.5
	}
	return in
}

// TestSessionInferMatchesPlainExecutor materializes a real session and
// checks its Infer (on the arena for a static lowering) agrees bitwise
// with a dynamic copy of the lowered graph on fresh buffers, across
// repeated calls (arena reuse).
func TestSessionInferMatchesPlainExecutor(t *testing.T) {
	s, err := core.New("CifarNet", "TensorFlow", "RPi3")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(42); err != nil {
		t.Fatal(err)
	}
	in := sessionInput(s)
	fresh := s.Lowered().Clone()
	fresh.Mode = graph.Dynamic
	want, err := (&graph.Executor{}).Run(fresh, in)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		got, err := s.Infer(in)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("pass %d: out[%d] = %v, want %v", pass, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestSessionOptimizeKeepsFrozen: an O2 Optimize on a frozen TFLite
// lowering succeeds without unfreezing the graph (no pass appends
// nodes), and the optimized session still infers.
func TestSessionOptimizeKeepsFrozen(t *testing.T) {
	s, err := core.New("CifarNet", "TFLite", "RPi3")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(42); err != nil {
		t.Fatal(err)
	}
	if !s.Lowered().Frozen {
		t.Fatal("TFLite lowering should freeze the graph")
	}
	if _, err := s.Optimize(opt.O2); err != nil {
		t.Fatal(err)
	}
	if !s.Lowered().Frozen {
		t.Fatal("Optimize unfroze the graph")
	}
	if _, err := s.Infer(sessionInput(s)); err != nil {
		t.Fatal(err)
	}
}

// TestSessionInferDynamicFramework checks define-by-run sessions execute
// without the planner and still produce a normalized classifier output.
func TestSessionInferDynamicFramework(t *testing.T) {
	s, err := core.New("CifarNet", "PyTorch", "RPi3")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize(7); err != nil {
		t.Fatal(err)
	}
	out, err := s.Infer(sessionInput(s))
	if err != nil {
		t.Fatal(err)
	}
	var sum float32
	for _, v := range out.Data {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("softmax output sums to %v", sum)
	}
}

// TestInferRequiresMaterializedWeights pins the error path: a structural
// session must refuse numeric execution with a helpful message.
func TestInferRequiresMaterializedWeights(t *testing.T) {
	s, err := core.New("CifarNet", "TensorFlow", "RPi3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(sessionInput(s)); err == nil {
		t.Fatal("Infer on structural graph should error")
	}
	if err := s.Materialize(1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(sessionInput(s)); err != nil {
		t.Fatal(err)
	}
}
