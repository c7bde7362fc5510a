package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"edgebench/internal/cluster"
	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/partition"
	"edgebench/internal/server"
	"edgebench/internal/serving"
	"edgebench/internal/tensor"
)

const (
	// weightSeed initializes every model's weights; only inputs follow
	// the -seed argument.
	weightSeed = 11
	// numInputs distinct input tensors cycle through each loop.
	numInputs = 16
	// warmOps untimed ops run before every timed loop.
	warmOps = 8
	// pipeStages is the depth of the pipe-* workload.
	pipeStages = 3
)

type kind int

const (
	stream kind = iota // one client calling Engine.Infer
	serve              // HTTP clients against server.Server
	pipe               // clients calling cluster.Pipeline.Infer
)

// workload is one fixed set of inputs and the path they take.
type workload struct {
	name    string
	model   string
	int8    bool
	kind    kind
	clients int
	// opsPerSec is this workload's nominal rate (bench/README.md). It turns
	// -seconds into a fixed op count — 128, 192, 1920 and 1920 ops at
	// run_seconds = 20 — so every run of one BENCHMARK.json does identical
	// work whatever the speed of the code under test.
	opsPerSec float64
	// setupReps timed set-ups (after one discarded) give setup_s.
	setupReps int
	// segOps ops make one segment of the timed loop; the host's speed is
	// sampled between segments (calib.go). A lone client is idle between
	// any two ops; two clients are stopped together every 170 ms or so.
	segOps int
}

var workloads = []workload{
	{name: "stream-mbv2-fp32", model: "MobileNet-v2", kind: stream, clients: 1, opsPerSec: 6.4, setupReps: 11, segOps: 1},
	{name: "stream-squeeze-int8", model: "SqueezeNet", int8: true, kind: stream, clients: 1, opsPerSec: 9.6, setupReps: 19, segOps: 1},
	{name: "serve-cifar-mixed", model: "CifarNet", kind: serve, clients: 2, opsPerSec: 96, setupReps: 77, segOps: 16},
	{name: "pipe-cifar-3stage", model: "CifarNet", kind: pipe, clients: 2, opsPerSec: 96, setupReps: 7, segOps: 16},
}

func findWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// opsFor sizes the timed loop: the ops that fit in seconds at the
// reference rate, rounded up to a whole number of passes over the inputs.
func (w *workload) opsFor(seconds int) int {
	ops := int(math.Ceil(w.opsPerSec * float64(seconds)))
	return (ops + numInputs - 1) / numInputs * numInputs
}

// target is a workload set up and ready to take ops.
type target struct {
	w *workload
	// g is the whole optimized graph; the reference executor runs on it.
	g        *graph.Graph
	rewrites int
	eng      *serving.Engine // stream and serve
	srv      *server.Server  // serve
	url      string
	clients  []*http.Client
	parts    []*graph.Graph // pipe
	pipe     *cluster.Pipeline
	stopWork []func() error
}

// setUp builds the workload from nothing to ready-to-serve: model build
// and materialize, opt.Optimize at O2, quantization if any, engine and
// warm-up, then listener or pipeline. replicas sizes the serve engine.
// Every step is a child span of one "setup" span when tr is set.
func setUp(w *workload, replicas int, tr *tracer) (t *target, err error) {
	root := tr.begin("setup", noParent, noReq)
	defer tr.end(root)
	step := func(name string, fn func() error) {
		if err != nil {
			return
		}
		sp := tr.begin(name, root, noReq)
		defer tr.end(sp)
		if e := fn(); e != nil {
			err = fmt.Errorf("%s: %s: %w", w.name, name, e)
		}
	}
	t = &target{w: w}
	defer func() {
		if err != nil {
			t.close()
			t = nil
		}
	}()

	step("model.build", func() error {
		spec, ok := model.Get(w.model)
		if !ok {
			return fmt.Errorf("no model %q in the zoo", w.model)
		}
		t.g = spec.Build(nn.Options{Materialize: true, Seed: weightSeed})
		return nil
	})
	step("opt.optimize", func() error {
		rep, e := opt.Optimize(t.g, opt.O2)
		if e == nil {
			t.rewrites = rep.TotalRewrites()
		}
		return e
	})
	if w.int8 {
		step("opt.quantize", func() error { opt.QuantizeINT8(t.g); return nil })
	}
	if w.kind == pipe {
		step("cluster.build_stages", func() error {
			cuts := partition.CutPoints(t.g)
			if len(cuts) < pipeStages {
				return fmt.Errorf("%d cut points, need %d", len(cuts), pipeStages)
			}
			parts, e := partition.SplitN(t.g, cuts[len(cuts)/3], cuts[2*len(cuts)/3])
			if e != nil {
				return e
			}
			partition.CopyParams(t.g, parts...)
			t.parts = parts
			return nil
		})
		step("cluster.connect", t.connectPipeline)
		return t, err
	}
	if w.kind == stream {
		replicas = 1
	}
	step("serving.new_engine", func() error {
		var e error
		t.eng, e = serving.NewEngine(t.g, replicas)
		return e
	})
	step("serving.warmup", func() error { return t.eng.Warmup() })
	if w.kind == serve {
		step("server.listen", t.listen)
	}
	return t, err
}

// listen puts the HTTP server on a loopback port, with one keep-alive
// connection per client.
func (t *target) listen() error {
	t.srv = server.New(t.eng, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: t.srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	t.stopWork = append(t.stopWork, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-served
		return err
	})
	t.url = "http://" + ln.Addr().String() + "/infer"
	for c := 0; c < t.w.clients; c++ {
		t.clients = append(t.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		})
	}
	return nil
}

// connectPipeline starts the in-process stage workers and wires the
// pipeline through them over loopback TCP.
func (t *target) connectPipeline() error {
	stages := make([]cluster.Stage, len(t.parts))
	for i := range stages {
		wk, err := cluster.NewWorker("127.0.0.1:0")
		if err != nil {
			return err
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- wk.Run(ctx) }()
		t.stopWork = append(t.stopWork, func() error {
			cancel()
			if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
				return err
			}
			return nil
		})
		stages[i] = cluster.Stage{Addr: wk.Addr()}
	}
	var err error
	t.pipe, err = cluster.Connect(t.parts, stages, cluster.Options{})
	return err
}

// close tears the target down and returns once every goroutine and
// connection it started has ended.
func (t *target) close() {
	for _, c := range t.clients {
		c.CloseIdleConnections()
	}
	if t.pipe != nil {
		_ = t.pipe.Close() // always nil
	}
	for _, stop := range t.stopWork {
		_ = stop() // a worker or listener that fails to stop has nothing left to report to
	}
	switch {
	case t.srv != nil:
		_ = t.srv.Close() // drains the engine too
	case t.eng != nil:
		_ = t.eng.Close()
	}
}

func (t *target) inputShape() tensor.Shape {
	if t.pipe != nil {
		return t.pipe.InputShape()
	}
	return t.eng.InputShape()
}

// inputs are the loop's tensors: server.SeededInput(shape, seed*1000+k).
type inputs struct {
	seeds   []int64
	tensors []*tensor.Tensor
}

func makeInputs(shape tensor.Shape, seed int64) inputs {
	in := inputs{}
	for k := 0; k < numInputs; k++ {
		s := seed*1000 + int64(k)
		in.seeds = append(in.seeds, s)
		in.tensors = append(in.tensors, server.SeededInput(shape, s))
	}
	return in
}

// references runs every input through a zero-value graph.Executor on the
// target's own graph object, and returns the outputs with an FNV-1a
// digest of their bits.
func (t *target) references(in inputs) ([][]float32, uint64, error) {
	refs := make([][]float32, len(in.tensors))
	h := fnv.New64a()
	var word [4]byte
	for k, x := range in.tensors {
		out, err := (&graph.Executor{}).Run(t.g, x)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: reference %d: %w", t.w.name, k, err)
		}
		refs[k] = out.Data
		for _, v := range out.Data {
			b := math.Float32bits(v)
			word[0], word[1], word[2], word[3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
			_, _ = h.Write(word[:]) // hash.Hash never fails
		}
	}
	return refs, h.Sum64(), nil
}

// serveRecord is what one HTTP op reported besides its output.
type serveRecord struct {
	totalMs float64
	batch   int
}

// opFunc returns the call one op makes into the system under test.
// records, when non-nil, receives the server's own per-request numbers.
func (t *target) opFunc(in inputs, records []serveRecord) (opFunc, error) {
	switch t.w.kind {
	case stream:
		return func(_, op int) ([]float32, error) {
			out, err := t.eng.Infer(in.tensors[op%numInputs])
			if err != nil {
				return nil, err
			}
			return out.Data, nil
		}, nil
	case pipe:
		return func(_, op int) ([]float32, error) {
			out, err := t.pipe.Infer(in.tensors[op%numInputs])
			if err != nil {
				return nil, err
			}
			return out.Data, nil
		}, nil
	}
	// Bodies are encoded once, outside the loop: the JSON the client
	// writes is the benchmark's cost, the JSON the server reads is the
	// system's. Even ops carry the tensor, odd ops only its seed.
	bodies := make([][2][]byte, numInputs)
	for k := range bodies {
		data, err := json.Marshal(server.InferRequest{Data: in.tensors[k].Data})
		if err != nil {
			return nil, err
		}
		seed, err := json.Marshal(server.InferRequest{Seed: in.seeds[k]})
		if err != nil {
			return nil, err
		}
		bodies[k] = [2][]byte{data, seed}
	}
	return func(client, op int) ([]float32, error) {
		resp, err := t.clients[client].Post(t.url, "application/json", bytes.NewReader(bodies[op%numInputs][op%2]))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			return nil, fmt.Errorf("status %d", resp.StatusCode)
		}
		var r server.InferResponse
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		if records != nil {
			records[op] = serveRecord{totalMs: r.TotalMs, batch: r.BatchSize}
		}
		return r.Output, nil
	}, nil
}

// childSpan names the span recorded around each op's call.
func (w *workload) childSpan() string {
	switch w.kind {
	case serve:
		return "server.roundtrip"
	case pipe:
		return "cluster.infer"
	}
	return "serving.infer"
}
