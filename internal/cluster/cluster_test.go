package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"edgebench/internal/cluster"
	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/partition"
	"edgebench/internal/server"
	"edgebench/internal/tensor"
)

// testModel builds a small materialized CNN with enough cut points for
// a 3-stage split.
func testModel(t *testing.T) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("pipetest", nn.Options{Materialize: true, Seed: 11}, 3, 12, 12)
	b.Conv2D("c1", 8, 3, 1, 1, true)
	b.ReLU("r1")
	b.MaxPool("p1", 2, 2, 0)
	b.Conv2D("c2", 12, 3, 1, 1, true)
	b.ReLU("r2")
	b.Conv2D("c3", 12, 3, 1, 1, true)
	b.ReLU("r3")
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	return b.Build()
}

// splitThree cuts g into three consecutive stages with params copied.
func splitThree(t *testing.T, g *graph.Graph) []*graph.Graph {
	t.Helper()
	cuts := partition.CutPoints(g)
	if len(cuts) < 4 {
		t.Fatalf("model admits only %d cuts", len(cuts))
	}
	parts, err := partition.SplitN(g, cuts[len(cuts)/3], cuts[2*len(cuts)/3])
	if err != nil {
		t.Fatal(err)
	}
	partition.CopyParams(g, parts...)
	return parts
}

// worker bundles an in-process stage worker with its lifecycle.
type workerProc struct {
	w      *cluster.Worker
	cancel context.CancelFunc
	errCh  chan error
}

// startWorkers launches n in-process stage workers on ephemeral ports.
func startWorkers(t *testing.T, n int) ([]cluster.Stage, []*workerProc) {
	t.Helper()
	stages := make([]cluster.Stage, n)
	procs := make([]*workerProc, n)
	for i := 0; i < n; i++ {
		w, err := cluster.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errCh := make(chan error, 1)
		go func() { errCh <- w.Run(ctx) }()
		stages[i] = cluster.Stage{Addr: w.Addr(), Device: "JetsonNano"}
		procs[i] = &workerProc{w: w, cancel: cancel, errCh: errCh}
		t.Cleanup(cancel)
	}
	return stages, procs
}

func waitExit(t *testing.T, p *workerProc) error {
	t.Helper()
	select {
	case err := <-p.errCh:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit")
		return nil
	}
}

// TestPipelineBitExact is the subsystem's core promise: a 3-stage
// pipeline over TCP produces bit-for-bit the outputs of a single
// in-process executor, sequentially and under concurrent load.
func TestPipelineBitExact(t *testing.T) {
	g := testModel(t)
	// Stage engines pre-pack their subgraph weights at session open, so
	// the single-process reference must run the same pre-packed GEMM
	// lowering to stay bitwise comparable.
	graph.PrepackWeights(g)
	parts := splitThree(t, g)
	stages, procs := startWorkers(t, 3)
	p, err := cluster.Connect(parts, stages, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()

	for seed := int64(0); seed < 4; seed++ {
		in := server.SeededInput(g.Input.OutShape, seed)
		want, err := (&graph.Executor{}).Run(g, in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Infer(in.Clone())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !got.Shape.Equal(want.Shape) {
			t.Fatalf("seed %d: shape %v want %v", seed, got.Shape, want.Shape)
		}
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("seed %d: output[%d] = %v, single-process %v",
					seed, i, got.Data[i], want.Data[i])
			}
		}
	}

	// Concurrent callers: all frames in flight at once, outputs must
	// still match their own seeds (no cross-wiring of sequence numbers).
	ins := make([]*tensor.Tensor, 6)
	wants := make([]*tensor.Tensor, len(ins))
	for i := range ins {
		ins[i] = server.SeededInput(g.Input.OutShape, int64(100+i))
		w, err := (&graph.Executor{}).Run(g, ins[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	outs := make([]*tensor.Tensor, len(ins))
	errs := make([]error, len(ins))
	var wg sync.WaitGroup
	for i := range ins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = p.Infer(ins[i])
		}()
	}
	wg.Wait()
	for i := range outs {
		if errs[i] != nil {
			t.Fatalf("concurrent frame %d: %v", i, errs[i])
		}
		for j := range wants[i].Data {
			if outs[i].Data[j] != wants[i].Data[j] {
				t.Fatalf("concurrent frame %d diverges at %d", i, j)
			}
		}
	}

	// Per-stage stats must show the traffic.
	sts := p.StageStats()
	if len(sts) != 3 {
		t.Fatalf("got %d stage stats", len(sts))
	}
	for i, st := range sts {
		if st.FramesIn == 0 || st.FramesOut == 0 {
			t.Fatalf("stage %d reports no traffic: %+v", i, st)
		}
		if st.BytesOut == 0 || st.ComputeSeconds <= 0 {
			t.Fatalf("stage %d stats incomplete: %+v", i, st)
		}
		if st.Stage != i {
			t.Fatalf("stage stats out of order: %+v at %d", st, i)
		}
	}
	i8, f32, fused := p.DispatchCounts()
	if f32 == 0 {
		t.Fatalf("pipeline dispatched no fp32 kernels (i8=%d f32=%d fused=%d)", i8, f32, fused)
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i, proc := range procs {
		if err := waitExit(t, proc); err != nil {
			t.Fatalf("worker %d exited with %v", i, err)
		}
	}
}

// TestPipelinePlanRoundTrip drives the analytic path end to end:
// PipelinePartition places a zoo model, BuildStages splits it, and the
// resulting pipeline matches single-process execution bit for bit.
func TestPipelinePlanRoundTrip(t *testing.T) {
	plan, err := partition.PipelinePartition("CifarNet",
		[]string{"RPi3", "JetsonNano", "JetsonTX2"}, "TFLite", partition.Ethernet)
	if err != nil {
		t.Fatal(err)
	}
	g := model.MustGet(plan.Model).Build(nn.Options{Materialize: true, Seed: 21})
	graph.PrepackWeights(g) // match the stage engines' pre-packed lowering
	parts, err := cluster.BuildStages(g, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("plan built %d stages, want 3", len(parts))
	}
	stages, _ := startWorkers(t, 3)
	p, err := cluster.Connect(parts, stages, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	in := server.SeededInput(g.Input.OutShape, 1)
	want, err := (&graph.Executor{}).Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Infer(in.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatal("planned pipeline diverges from single-process run")
		}
	}
}

// TestPipelineKillMiddleStage is the graceful-failure contract: kill
// stage 1 mid-stream; the dispatcher must surface a structured
// StageError (marked Unavailable), in-flight requests must fail rather
// than hang, and the HTTP front end must answer 503.
func TestPipelineKillMiddleStage(t *testing.T) {
	g := testModel(t)
	parts := splitThree(t, g)
	stages, procs := startWorkers(t, 3)
	p, err := cluster.Connect(parts, stages, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()

	srv := server.New(p, server.Config{QueueCap: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() { _ = srv.Close() }()

	// Warm traffic through the full chain.
	if _, err := p.Infer(server.SeededInput(g.Input.OutShape, 0)); err != nil {
		t.Fatal(err)
	}

	// Kill the middle stage and keep firing until failure propagates.
	procs[1].cancel()
	if err := waitExit(t, procs[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed worker exited with %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var inferErr error
	for time.Now().Before(deadline) {
		_, inferErr = p.Infer(server.SeededInput(g.Input.OutShape, 7))
		if inferErr != nil {
			break
		}
	}
	if inferErr == nil {
		t.Fatal("pipeline kept succeeding after its middle stage died")
	}
	var se *cluster.StageError
	if !errors.As(inferErr, &se) {
		t.Fatalf("want *StageError, got %T: %v", inferErr, inferErr)
	}
	if !se.Unavailable() {
		t.Fatal("StageError must mark the pipeline unavailable")
	}
	if se.Stage != 0 && se.Stage != 1 && se.Stage != 2 {
		t.Fatalf("implausible failed stage index %d", se.Stage)
	}
	if p.Err() == nil {
		t.Fatal("pipeline should remember its terminal error")
	}

	// The front server must answer 503, not hang or 500.
	body, err := json.Marshal(server.InferRequest{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("front server returned %d, want 503", resp.StatusCode)
	}
}

// TestPipelineFrontServerKeepsStagesFed: the front server sizes its
// dispatch from Pipeline.Concurrency — one frame per stage and one for
// the hops — so concurrent HTTP requests overlap inside the chain
// instead of crossing it one at a time, and every answer still carries
// the single-process executor's bits.
func TestPipelineFrontServerKeepsStagesFed(t *testing.T) {
	g := testModel(t)
	graph.PrepackWeights(g) // match the stage engines' pre-packed lowering
	parts := splitThree(t, g)
	stages, _ := startWorkers(t, 3)
	p, err := cluster.Connect(parts, stages, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Concurrency(); got != 4 {
		t.Fatalf("3-stage pipeline declares concurrency %d, want 4 (a frame per stage + 1)", got)
	}
	srv := server.New(p, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() { _ = srv.Close() }() // closes the pipeline too

	const n = 16
	outs := make([]server.InferResponse, n)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(server.InferRequest{Seed: int64(i)})
			resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			if err := json.NewDecoder(resp.Body).Decode(&outs[i]); err != nil {
				t.Errorf("seed %d: status %d: %v", i, resp.StatusCode, err)
			}
		}()
	}
	wg.Wait()
	for i, out := range outs {
		want, err := (&graph.Executor{}).Run(g, server.SeededInput(g.Input.OutShape, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Output) != len(want.Data) {
			t.Fatalf("seed %d: %d outputs, want %d", i, len(out.Output), len(want.Data))
		}
		for j := range want.Data {
			if out.Output[j] != want.Data[j] {
				t.Fatalf("seed %d: output[%d] = %v, single-process %v", i, j, out.Output[j], want.Data[j])
			}
		}
	}
	m := srv.Metrics()
	if got := m.EngineInflightMax.Value(); got < 2 || got > 4 {
		t.Errorf("most frames in flight at once %v, want 2..4 (16 concurrent requests, concurrency 4)", got)
	}
	if got := m.Batches.Value(); got != n {
		t.Errorf("%d dispatches for %d requests, want one each", got, n)
	}
}

// TestPipelineGracefulClose: Close drains workers (they exit nil) and
// later Infers fail fast with ErrPipelineClosed (also Unavailable).
func TestPipelineGracefulClose(t *testing.T) {
	g := testModel(t)
	parts := splitThree(t, g)
	stages, procs := startWorkers(t, 3)
	p, err := cluster.Connect(parts, stages, cluster.Options{Credits: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Infer(server.SeededInput(g.Input.OutShape, 5)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i, proc := range procs {
		if err := waitExit(t, proc); err != nil {
			t.Fatalf("worker %d exited with %v after graceful close", i, err)
		}
	}
	_, err = p.Infer(server.SeededInput(g.Input.OutShape, 6))
	if !errors.Is(err, cluster.ErrPipelineClosed) {
		t.Fatalf("want ErrPipelineClosed, got %v", err)
	}
	var unavail interface{ Unavailable() bool }
	if !errors.As(err, &unavail) || !unavail.Unavailable() {
		t.Fatal("ErrPipelineClosed must be Unavailable")
	}
	if err := p.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}
