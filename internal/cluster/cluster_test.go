package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"edgebench/internal/cluster"
	"edgebench/internal/exchange"
	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/partition"
	"edgebench/internal/server"
	"edgebench/internal/tensor"
)

// testModel builds a small materialized CNN with enough cut points for
// a 3-stage split.
func testModel(t *testing.T) *graph.Graph { return testModelHW(t, 12) }

// testModelHW is testModel on an hw×hw input: the tests that need frames
// to still be computing when something else happens use a larger one.
func testModelHW(t *testing.T, hw int) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("pipetest", nn.Options{Materialize: true, Seed: 11}, 3, hw, hw)
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

// wantBits fails the test unless got carries exactly the bits a
// single-process executor computes for in on g.
func wantBits(t *testing.T, g *graph.Graph, in *tensor.Tensor, got []float32, what string) {
	t.Helper()
	want, err := (&graph.Executor{}).Run(g, in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Data) {
		t.Fatalf("%s: %d outputs, want %d", what, len(got), len(want.Data))
	}
	for i := range want.Data {
		if got[i] != want.Data[i] {
			t.Fatalf("%s: output[%d] = %v, single-process %v", what, i, got[i], want.Data[i])
		}
	}
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
// than hang, and the HTTP front end must answer 503. Every stage runs two
// compute loops, so the survivors each have loops parked on inQ (or on a
// credit) when their neighbour dies; their Run returning proves none stays
// parked.
func TestPipelineKillMiddleStage(t *testing.T) {
	g := testModel(t)
	parts := splitThree(t, g)
	stages, procs := startWorkers(t, 3)
	p, err := cluster.Connect(parts, stages, cluster.Options{Replicas: 2})
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
	if !errors.Is(p.Err(), inferErr) {
		t.Fatalf("pipeline remembers %v, its callers were told %v", p.Err(), inferErr)
	}
	for _, i := range []int{0, 2} {
		// Run waits for every goroutine the worker started.
		if err := waitExit(t, procs[i]); err == nil {
			t.Fatalf("stage %d exited clean after losing its neighbour", i)
		}
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
// dispatch from Pipeline.Concurrency — the frames the stages compute at
// once and one for the hops — so concurrent HTTP requests overlap inside
// the chain instead of crossing it one at a time. With two loops a stage
// frames overtake each other, so every answer is checked against the
// single-process executor's bits for its own seed: a result handed to the
// wrong request shows as a wrong output.
func TestPipelineFrontServerKeepsStagesFed(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			g := testModel(t)
			parts := splitThree(t, g)
			stages, _ := startWorkers(t, 3)
			p, err := cluster.Connect(parts, stages, cluster.Options{Replicas: replicas})
			if err != nil {
				t.Fatal(err)
			}
			conc := p.Concurrency()
			if want := 3*replicas + 1; conc != want {
				t.Fatalf("3 stages of %d loops declare concurrency %d, want %d (a frame per loop + 1)", replicas, conc, want)
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
				wantBits(t, g, server.SeededInput(g.Input.OutShape, int64(i)), out.Output, fmt.Sprintf("seed %d", i))
			}
			m := srv.Metrics()
			if got := m.EngineInflightMax.Value(); got < 2 || got > float64(conc) {
				t.Errorf("most frames in flight at once %v, want 2..%d (%d concurrent requests)", got, conc, n)
			}
			if got := m.Batches.Value(); got != n {
				t.Errorf("%d dispatches for %d requests, want one each", got, n)
			}
			for _, st := range p.StageStats() {
				if st.Concurrency != replicas || st.InflightMax < 1 || st.InflightMax > replicas {
					t.Errorf("stage %d: concurrency %d, most frames computing at once %d; want %d and 1..%d",
						st.Stage, st.Concurrency, st.InflightMax, replicas, replicas)
				}
			}
		})
	}
}

// TestStageComputesFramesConcurrently: a stage whose engine has two
// replicas computes two waiting frames side by side. Pairs of concurrent
// Infers go in until the stage reports both inside the engine at once; a
// stage that takes one frame at a time never does.
func TestStageComputesFramesConcurrently(t *testing.T) {
	g := testModelHW(t, 48)
	stages, _ := startWorkers(t, 1)
	p, err := cluster.Connect([]*graph.Graph{g}, stages, cluster.Options{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	if got := p.Concurrency(); got != 3 {
		t.Fatalf("one stage of two loops declares concurrency %d, want 3", got)
	}
	deadline := time.Now().Add(10 * time.Second)
	for seed := int64(0); ; seed += 2 {
		ins := []*tensor.Tensor{server.SeededInput(g.Input.OutShape, seed), server.SeededInput(g.Input.OutShape, seed+1)}
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
		for i := range ins {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			wantBits(t, g, ins[i], outs[i].Data, fmt.Sprintf("seed %d", seed+int64(i)))
		}
		st := p.StageStats()[0]
		if st.Concurrency != 2 || st.InflightMax > 2 {
			t.Fatalf("stage reports concurrency %d and %d frames computing at once, want 2 and at most 2", st.Concurrency, st.InflightMax)
		}
		if st.InflightMax == 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d pairs of concurrent frames the stage never computed two at once", seed/2+1)
		}
	}
}

// TestPipelineGracefulClose: Close drains workers (they exit nil) and
// later Infers fail fast with ErrPipelineClosed (also Unavailable). Close
// is called with frames still inside the stages' compute loops (two a
// stage): each of those calls gets its own bit-exact result or
// ErrPipelineClosed, never a neighbour's bits and never a hang, and every
// goroutine the pipeline and the workers started is gone afterwards.
func TestPipelineGracefulClose(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := testModelHW(t, 48)
	parts := splitThree(t, g)
	stages, procs := startWorkers(t, 3)
	p, err := cluster.Connect(parts, stages, cluster.Options{Credits: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Infer(server.SeededInput(g.Input.OutShape, 5)); err != nil {
		t.Fatal(err)
	}

	const n = 8
	ins := make([]*tensor.Tensor, n)
	outs := make([]*tensor.Tensor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range ins {
		ins[i] = server.SeededInput(g.Input.OutShape, int64(20+i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = p.Infer(ins[i])
		}()
	}
	// Close once the burst has started to arrive at stage 0.
	for p.StageStats()[0].FramesIn < 3 {
		time.Sleep(50 * time.Microsecond)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := range ins {
		switch {
		case errs[i] == nil:
			wantBits(t, g, ins[i], outs[i].Data, fmt.Sprintf("in-flight frame %d", i))
		case !errors.Is(errs[i], cluster.ErrPipelineClosed):
			t.Fatalf("in-flight frame %d: %v, want a result or ErrPipelineClosed", i, errs[i])
		}
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
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after close, %d before the pipeline existed", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// handConfigure plays the dispatcher's control role toward one worker:
// hello, config, wait for Ready. It returns the control connection and the
// compute-loop count the worker reported.
func handConfigure(t *testing.T, addr string, cfg cluster.WorkerConfig, part *graph.Graph) (net.Conn, int) {
	t.Helper()
	var err error
	if cfg.Graph, err = exchange.Export(part, exchange.Options{IncludeWeights: true}); err != nil {
		t.Fatal(err)
	}
	payload, err := cfg.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ctrl.Close() })
	for _, f := range []*cluster.Frame{
		cluster.ControlFrame(cluster.KindHello, uint64(cfg.Stage), []byte(cluster.RoleControl)),
		cluster.ControlFrame(cluster.KindConfig, uint64(cfg.Stage), payload),
	} {
		if err := cluster.WriteFrame(ctrl, f); err != nil {
			t.Fatal(err)
		}
	}
	ready, err := cluster.ReadFrame(ctrl)
	if err != nil || ready.Kind != cluster.KindReady {
		t.Fatalf("stage %d: no Ready: %v %v", cfg.Stage, ready, err)
	}
	return ctrl, int(ready.Seq)
}

// TestStageDrainSendsOneEOSLast watches the wire a Pipeline's result loop
// stops reading at EOS: the test is the dispatcher of a two-stage chain
// whose stages run two compute loops each, shuts it down with frames
// still inside them, and reads the result connection past the EOS. Every
// frame sent must arrive with its own bits, then one EOS — the last loop
// to retire sends it, after its siblings' frames — then nothing, and the
// chain unwinds from the back once the test hangs up.
func TestStageDrainSendsOneEOSLast(t *testing.T) {
	g := testModelHW(t, 48)
	cuts := partition.CutPoints(g)
	parts, err := partition.SplitN(g, cuts[len(cuts)/2])
	if err != nil {
		t.Fatal(err)
	}
	partition.CopyParams(g, parts...)
	stages, procs := startWorkers(t, 2)

	resultLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resultLn.Close() }()
	ctrls := make([]net.Conn, 2)
	for i := 1; i >= 0; i-- { // last stage first: each dials a configured peer
		down := resultLn.Addr().String()
		if i == 0 {
			down = stages[1].Addr
		}
		var loops int
		ctrls[i], loops = handConfigure(t, stages[i].Addr, cluster.WorkerConfig{Stage: i, Downstream: down, Replicas: 2}, parts[i])
		if loops != 2 {
			t.Fatalf("stage %d reports %d compute loops in Ready, want 2", i, loops)
		}
	}
	result, err := resultLn.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = result.Close() }()
	if f, err := cluster.ReadFrame(result); err != nil || f.Kind != cluster.KindHello {
		t.Fatalf("result connection: %v %v", f, err)
	}
	if err := cluster.WriteFrame(result, cluster.ControlFrame(cluster.KindCredit, cluster.DefaultCredits, nil)); err != nil {
		t.Fatal(err)
	}
	head, err := net.Dial("tcp", stages[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()
	if err := cluster.WriteFrame(head, cluster.ControlFrame(cluster.KindHello, 0, []byte(cluster.RoleData))); err != nil {
		t.Fatal(err)
	}
	if f, err := cluster.ReadFrame(head); err != nil || f.Kind != cluster.KindCredit || f.Seq < 6 {
		t.Fatalf("head connection: no credit window: %v %v", f, err)
	}

	// One frame all the way through first, as Connect's callers send
	// before they close: a stage told to shut down before it has accepted
	// its upstream's connection takes itself for the head of no chain.
	if err := cluster.WriteFrame(head, cluster.TensorFrame(100, server.SeededInput(g.Input.OutShape, 100))); err != nil {
		t.Fatal(err)
	}
	if f, err := cluster.ReadFrame(result); err != nil || f.Kind != cluster.KindTensor || f.Seq != 100 {
		t.Fatalf("warm frame: %v %v", f, err)
	}
	if err := cluster.WriteFrame(result, cluster.ControlFrame(cluster.KindCredit, 1, nil)); err != nil {
		t.Fatal(err)
	}

	// Six frames inside the window, then the shutdown Pipeline.Close sends.
	ins := map[uint64]*tensor.Tensor{}
	for seq := uint64(1); seq <= 6; seq++ {
		ins[seq] = server.SeededInput(g.Input.OutShape, int64(seq))
		if err := cluster.WriteFrame(head, cluster.TensorFrame(seq, ins[seq])); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range ctrls {
		if err := cluster.WriteFrame(c, cluster.ControlFrame(cluster.KindShutdown, 0, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cluster.WriteFrame(head, cluster.ControlFrame(cluster.KindEOS, 0, nil)); err != nil {
		t.Fatal(err)
	}

	if err := result.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for eos := false; !eos; {
		f, err := cluster.ReadFrame(result)
		if err != nil {
			t.Fatalf("result connection ended with %v and %d frames undelivered, before any EOS", err, len(ins))
		}
		switch f.Kind {
		case cluster.KindEOS:
			eos = true
		case cluster.KindTensor:
			out, err := f.Tensor()
			if err != nil {
				t.Fatal(err)
			}
			in := ins[f.Seq]
			if in == nil {
				t.Fatalf("seq %d arrived twice or was never sent", f.Seq)
			}
			delete(ins, f.Seq)
			wantBits(t, g, in, out.Data, fmt.Sprintf("seq %d", f.Seq))
			if err := cluster.WriteFrame(result, cluster.ControlFrame(cluster.KindCredit, 1, nil)); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("unexpected %s frame on the result connection", f.Kind)
		}
	}
	if len(ins) != 0 {
		t.Fatalf("EOS arrived with %d frames still undelivered", len(ins))
	}
	// The stage stays until its downstream hangs up, and says nothing more.
	if err := result.SetReadDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var timeout net.Error
	if f, err := cluster.ReadFrame(result); !errors.As(err, &timeout) || !timeout.Timeout() {
		t.Fatalf("after the stage's EOS: frame %v, error %v; want silence on an open connection", f, err)
	}
	_ = result.Close()
	for i, proc := range procs {
		if err := waitExit(t, proc); err != nil {
			t.Fatalf("worker %d exited with %v after a clean drain", i, err)
		}
	}
}

// TestPipelineInt8BitExact: a quantized graph reaches its stages with its
// int8 codes, so every stage runs the int8 kernels and the pipeline
// computes exactly the single-process executor's bits.
func TestPipelineInt8BitExact(t *testing.T) {
	g := testModel(t)
	opt.QuantizeINT8(g)
	cuts := partition.CutPoints(g)
	parts, err := partition.SplitN(g, cuts[len(cuts)/2])
	if err != nil {
		t.Fatal(err)
	}
	partition.CopyParams(g, parts...)
	stages, _ := startWorkers(t, 2)
	p, err := cluster.Connect(parts, stages, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	for seed := int64(0); seed < 4; seed++ {
		in := server.SeededInput(g.Input.OutShape, seed)
		got, err := p.Infer(in.Clone())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		wantBits(t, g, in, got.Data, fmt.Sprintf("seed %d", seed))
	}
	for i, st := range p.StageStats() {
		if st.Int8Kernels == 0 {
			t.Fatalf("stage %d ran no int8 kernel (fp32 %d): its codes were lost on the way", i, st.FP32Kernels)
		}
	}
}

// TestWorkerRejectsBadConfig: a worker sent a truncated or garbled Config
// payload answers with an Error frame, and its Run returns the error.
func TestWorkerRejectsBadConfig(t *testing.T) {
	data, err := exchange.Export(testModel(t), exchange.Options{IncludeWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	good, err := cluster.WorkerConfig{Downstream: "127.0.0.1:1", Graph: data}.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	graphAt := len(good) - len(data)
	edit := func(at int, b ...byte) []byte {
		p := append([]byte(nil), good...)
		copy(p[at:], b)
		return p
	}
	for name, payload := range map[string][]byte{
		"short length prefix": good[:3],
		"length past end":     edit(0, 0xff, 0xff, 0xff, 0x7f),
		"garbled JSON":        edit(4, ']'),
		"no graph":            good[:graphAt],
		"truncated graph":     good[:len(good)-9],
		"garbled graph":       edit(graphAt+3, 0x40),
	} {
		t.Run(name, func(t *testing.T) {
			stages, procs := startWorkers(t, 1)
			ctrl, err := net.Dial("tcp", stages[0].Addr)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = ctrl.Close() }()
			for _, f := range []*cluster.Frame{
				cluster.ControlFrame(cluster.KindHello, 0, []byte(cluster.RoleControl)),
				cluster.ControlFrame(cluster.KindConfig, 0, payload),
			} {
				if err := cluster.WriteFrame(ctrl, f); err != nil {
					t.Fatal(err)
				}
			}
			if err := ctrl.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
				t.Fatal(err)
			}
			f, err := cluster.ReadFrame(ctrl)
			if err != nil || f.Kind != cluster.KindError {
				t.Fatalf("reply %v, %v; want an Error frame", f, err)
			}
			if err := waitExit(t, procs[0]); err == nil {
				t.Fatal("worker exited cleanly after a bad config")
			}
		})
	}
}
