package serving_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/serving"
	"edgebench/internal/tensor"
)

func engineCNN(t testing.TB) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("engine-cnn", nn.Options{Materialize: true, Seed: 5}, 3, 16, 16)
	stem := b.ConvBNReLU("stem", 8, 3, 1, 1)
	br1 := b.From(stem).Conv2D("br1", 8, 1, 1, 0, true)
	br2 := b.From(stem).Conv2D("br2", 8, 3, 1, 1, true)
	b.Concat("cat", br1, br2)
	b.MaxPool("pool", 2, 2, 0)
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

func engineInput(i int) *tensor.Tensor {
	in := tensor.New(3, 16, 16)
	for j := range in.Data {
		in.Data[j] = float32(math.Sin(float64(i*131 + j)))
	}
	return in
}

// TestEngineBatchMatchesSequential runs a concurrent batch through the
// replica pool and checks every output equals a dedicated sequential
// executor's result for the same input.
func TestEngineBatchMatchesSequential(t *testing.T) {
	g := engineCNN(t)
	eng, err := serving.NewEngine(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	ins := make([]*tensor.Tensor, n)
	for i := range ins {
		ins[i] = engineInput(i)
	}
	outs, err := eng.InferBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	ref := &graph.Executor{}
	for i, in := range ins {
		want, err := ref.Run(g, in)
		if err != nil {
			t.Fatal(err)
		}
		single, err := eng.Infer(in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Data {
			if outs[i].Data[j] != want.Data[j] {
				t.Fatalf("request %d: batched out[%d] = %v, want %v", i, j, outs[i].Data[j], want.Data[j])
			}
			if single.Data[j] != want.Data[j] {
				t.Fatalf("request %d: Infer out[%d] = %v, want %v", i, j, single.Data[j], want.Data[j])
			}
		}
	}
	// Static graph: both paths run against the replica arenas, so after
	// the Infer and InferBatch traffic above, steady-state reuse must
	// dominate over cold misses.
	st := eng.PoolStats()
	if st.Gets == 0 {
		t.Fatal("engine never touched its arenas")
	}
	if hits := st.Gets - st.Misses; hits <= st.Misses {
		t.Errorf("arena stats %+v: expected steady-state reuse to dominate", st)
	}
}

// TestInferBatchFanOut pins InferBatch as replica fan-out: on engines
// with one and two replicas, batches of 1, R, R+1 and 3R come back in
// input order with exactly Infer's bits; a sample that fails is named by
// its index while every other sample still returns; and every replica is
// back in the pool afterwards (Close drains them all, so it would hang
// on a lost one).
func TestInferBatchFanOut(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		for k, n := range []int{1, replicas, replicas + 1, 3 * replicas} {
			if k == 1 && n == 1 {
				continue // R = 1: the batch of R is the batch of 1
			}
			t.Run(fmt.Sprintf("replicas=%d/batch=%d", replicas, n), func(t *testing.T) {
				eng, err := serving.NewEngine(engineCNN(t), replicas)
				if err != nil {
					t.Fatal(err)
				}
				ins := make([]*tensor.Tensor, n)
				wants := make([]*tensor.Tensor, n)
				for i := range ins {
					ins[i] = engineInput(7*n + i)
					if wants[i], err = eng.Infer(ins[i]); err != nil {
						t.Fatal(err)
					}
				}
				check := func(outs []*tensor.Tensor, skip int) {
					t.Helper()
					if len(outs) != n {
						t.Fatalf("%d outputs for %d inputs", len(outs), n)
					}
					for i, out := range outs {
						if i == skip {
							continue
						}
						if out == nil {
							t.Fatalf("sample %d has no output", i)
						}
						for j := range wants[i].Data {
							if out.Data[j] != wants[i].Data[j] {
								t.Fatalf("sample %d: out[%d] = %v, Infer gives %v", i, j, out.Data[j], wants[i].Data[j])
							}
						}
					}
				}
				outs, err := eng.InferBatch(ins)
				if err != nil {
					t.Fatal(err)
				}
				check(outs, -1)

				// The last sample has the wrong shape: only it fails.
				bad := n - 1
				ins[bad] = tensor.New(3, 8, 8)
				outs, err = eng.InferBatch(ins)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("request %d:", bad)) {
					t.Fatalf("err = %v, want one naming request %d", err, bad)
				}
				if outs[bad] != nil {
					t.Errorf("failed sample %d still has an output", bad)
				}
				check(outs, bad)

				closed := make(chan error, 1)
				go func() { closed <- eng.Close() }()
				select {
				case err := <-closed:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("Close still waiting: a replica never came back to the pool")
				}
			})
		}
	}
}

// bigEngineCNN builds a graph whose convs exceed the kernel parallel
// threshold, so concurrent replicas and intra-op sharding contend for
// the same fixed worker pool.
func bigEngineCNN(t testing.TB) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("engine-big", nn.Options{Materialize: true, Seed: 6}, 16, 32, 32)
	stem := b.ConvBNReLU("stem", 32, 3, 1, 1)
	br1 := b.From(stem).Conv2D("br1", 32, 3, 1, 1, true)
	br2 := b.From(stem).Conv2D("br2", 32, 3, 1, 1, true)
	b.Concat("cat", br1, br2)
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

// TestEngineReplicasShareKernelPool floods the replica pool with
// concurrent requests whose kernels all try to shard onto the shared
// worker pool. Every output must stay bitwise equal to a sequential
// executor — the kernel pool's saturation fallback must never change
// results. Run with -race this is the replica × intra-op contention
// stress.
func TestEngineReplicasShareKernelPool(t *testing.T) {
	g := bigEngineCNN(t)
	eng, err := serving.NewEngine(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const n = 9
	ins := make([]*tensor.Tensor, n)
	want := make([]*tensor.Tensor, n)
	ref := &graph.Executor{}
	for i := range ins {
		in := tensor.New(16, 32, 32)
		for j := range in.Data {
			in.Data[j] = float32(math.Sin(float64(i*977 + j)))
		}
		ins[i] = in
		w, err := ref.Run(g, in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := eng.Infer(ins[i])
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			for j := range want[i].Data {
				if got.Data[j] != want[i].Data[j] {
					t.Errorf("request %d: out[%d] = %v, want %v", i, j, got.Data[j], want[i].Data[j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestEngineRejectsStructuralGraph pins the materialization gate.
func TestEngineRejectsStructuralGraph(t *testing.T) {
	b := nn.NewBuilder("structural", nn.Options{}, 3, 8, 8)
	b.Conv2D("c", 4, 3, 1, 1, true)
	b.GlobalAvgPool("gap")
	b.Softmax("sm")
	if _, err := serving.NewEngine(b.Build(), 2); err == nil {
		t.Fatal("structural graph must be rejected")
	}
}

// TestEngineEmptyAndNilBatch pins the typed fast-fail errors: no
// goroutines are spawned for zero-work or malformed batches.
func TestEngineEmptyAndNilBatch(t *testing.T) {
	eng, err := serving.NewEngine(engineCNN(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.InferBatch(nil); !errors.Is(err, serving.ErrEmptyBatch) {
		t.Fatalf("empty batch returned %v, want ErrEmptyBatch", err)
	}
	if _, err := eng.InferBatch([]*tensor.Tensor{}); !errors.Is(err, serving.ErrEmptyBatch) {
		t.Fatalf("zero-length batch returned %v, want ErrEmptyBatch", err)
	}
	if _, err := eng.InferBatch([]*tensor.Tensor{engineInput(0), nil}); !errors.Is(err, serving.ErrNilInput) {
		t.Fatalf("nil tensor returned %v, want ErrNilInput", err)
	}
	if _, err := eng.Infer(nil); !errors.Is(err, serving.ErrNilInput) {
		t.Fatalf("nil Infer returned %v, want ErrNilInput", err)
	}
}

// TestEngineClose pins the drain semantics: Close waits for in-flight
// work, later inferences fail fast, and Close is idempotent and safe
// under concurrency.
func TestEngineClose(t *testing.T) {
	eng, err := serving.NewEngine(engineCNN(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	// In-flight inferences racing Close must either finish cleanly or
	// fail with ErrEngineClosed — never hang, never corrupt.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := eng.Infer(engineInput(i)); err != nil && !errors.Is(err, serving.ErrEngineClosed) {
				t.Errorf("in-flight infer: %v", err)
			}
		}(i)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := eng.Infer(engineInput(0)); !errors.Is(err, serving.ErrEngineClosed) {
		t.Fatalf("post-close Infer returned %v, want ErrEngineClosed", err)
	}
	if _, err := eng.InferBatch([]*tensor.Tensor{engineInput(0)}); !errors.Is(err, serving.ErrEngineClosed) {
		t.Fatalf("post-close InferBatch returned %v, want ErrEngineClosed", err)
	}
}

// TestEngineAccessors pins the surface the HTTP server builds on.
func TestEngineAccessors(t *testing.T) {
	g := engineCNN(t)
	eng, err := serving.NewEngine(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Replicas() != 3 {
		t.Errorf("replicas %d, want 3", eng.Replicas())
	}
	if !eng.InputShape().Equal(tensor.Shape{3, 16, 16}) {
		t.Errorf("input shape %v", eng.InputShape())
	}
}
