package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/server"
	"edgebench/internal/serving"
	"edgebench/internal/tensor"
)

func buildEngine(t testing.TB, replicas int) (*graph.Graph, *serving.Engine) {
	t.Helper()
	b := nn.NewBuilder("http-cnn", nn.Options{Materialize: true, Seed: 7}, 3, 16, 16)
	b.ConvBNReLU("stem", 8, 3, 1, 1)
	b.MaxPool("pool", 2, 2, 0)
	b.GlobalAvgPool("gap")
	b.Dense("fc", 10, true)
	b.Softmax("prob")
	g := b.Build()
	eng, err := serving.NewEngine(g, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return g, eng
}

// post sends one /infer request and decodes a 200's body. It reports
// failures as an error, so goroutines other than the test's can call it.
func post(url string, req server.InferRequest) (*http.Response, server.InferResponse, error) {
	var out server.InferResponse
	body, err := json.Marshal(req)
	if err != nil {
		return nil, out, err
	}
	resp, err := http.Post(url+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&out)
	}
	return resp, out, err
}

func postInfer(t *testing.T, url string, req server.InferRequest) (*http.Response, server.InferResponse) {
	t.Helper()
	resp, out, err := post(url, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestServerInferMatchesEngine: a round trip through HTTP + dispatcher must
// return exactly what a direct engine call returns for the same input.
func TestServerInferMatchesEngine(t *testing.T) {
	g, eng := buildEngine(t, 2)
	srv := server.New(eng, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	in := tensor.New(3, 16, 16)
	for j := range in.Data {
		in.Data[j] = float32(math.Cos(float64(j)))
	}
	want, err := (&graph.Executor{}).Run(g, in)
	if err != nil {
		t.Fatal(err)
	}

	resp, out := postInfer(t, ts.URL, server.InferRequest{Data: in.Data})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(out.Output) != len(want.Data) {
		t.Fatalf("output length %d, want %d", len(out.Output), len(want.Data))
	}
	for j := range want.Data {
		if out.Output[j] != want.Data[j] {
			t.Fatalf("output[%d] = %v, want %v", j, out.Output[j], want.Data[j])
		}
	}
	if out.BatchSize != 1 {
		t.Errorf("batch size %d, want 1: every request is dispatched alone", out.BatchSize)
	}
}

// TestServerSeededInputDeterministic: the seed path must be reproducible
// request to request.
func TestServerSeededInputDeterministic(t *testing.T) {
	_, eng := buildEngine(t, 1)
	srv := server.New(eng, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	_, a := postInfer(t, ts.URL, server.InferRequest{Seed: 42})
	_, b := postInfer(t, ts.URL, server.InferRequest{Seed: 42})
	for j := range a.Output {
		if a.Output[j] != b.Output[j] {
			t.Fatalf("seeded inference not deterministic at %d: %v vs %v", j, a.Output[j], b.Output[j])
		}
	}
}

// TestServerBadInput pins the 400 path: wrong-size data never reaches
// the engine.
func TestServerBadInput(t *testing.T) {
	_, eng := buildEngine(t, 1)
	srv := server.New(eng, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp, _ := postInfer(t, ts.URL, server.InferRequest{Data: []float32{1, 2, 3}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if got := srv.Metrics().Requests.Value("400"); got != 1 {
		t.Errorf("400 counter = %d, want 1", got)
	}
}

// TestServerOversizedBodyReturns413: /infer reads no more than the
// model's input could need. A body past that bound is refused with 413
// before it is buffered, while a full-size tensor printed at the widest
// a float32 gets still fits.
func TestServerOversizedBodyReturns413(t *testing.T) {
	_, eng := buildEngine(t, 1)
	srv := server.New(eng, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/infer", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	n := eng.InputShape().NumElems()
	widest := `{"data":[` + strings.TrimSuffix(strings.Repeat("-1.2345678e-10,", n), ",") + `],"deadline_ms":1000.5}`
	if code := post(widest); code != http.StatusOK {
		t.Errorf("full-size request of %d bytes: status %d, want 200", len(widest), code)
	}
	huge := `{"data":[` + strings.Repeat("0,", 64*n) + `0]}`
	if code := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Errorf("%d-byte body: status %d, want 413", len(huge), code)
	}
	if got := srv.Metrics().Requests.Value("413"); got != 1 {
		t.Errorf("413 counter = %d, want 1", got)
	}
}

// TestServerNonFiniteOutputReturns500: encoding/json refuses NaN and
// ±Inf, so a model that produces one must be answered with the JSON
// error envelope and a 500 — and counted as one — rather than a 200
// whose body the encoder then declines to write.
func TestServerNonFiniteOutputReturns500(t *testing.T) {
	g, eng := buildEngine(t, 1)
	for _, n := range g.Nodes {
		if n.Kind == graph.OpDense {
			n.Bias[0] = float32(math.NaN()) // poisons the logit, and softmax spreads it
		}
	}
	srv := server.New(eng, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	resp, err := http.Post(ts.URL+"/infer", "application/json", strings.NewReader(`{"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body is not the JSON error envelope: %v", err)
	}
	if !strings.Contains(body.Error, "not finite") {
		t.Errorf("error %q does not say the output was not finite", body.Error)
	}
	if ok, failed := srv.Metrics().Requests.Value("200"), srv.Metrics().Requests.Value("500"); ok != 0 || failed != 1 {
		t.Errorf("request counters 200=%d 500=%d, want 0 and 1", ok, failed)
	}
}

// TestHTTPServerDisconnectsHalfHeader: the http.Server both commands
// listen with carries timeouts, so a client that sends half a request
// header and then stalls is disconnected once ReadHeaderTimeout passes
// instead of holding the connection for as long as it likes.
func TestHTTPServerDisconnectsHalfHeader(t *testing.T) {
	_, eng := buildEngine(t, 1)
	srv := server.New(eng, server.Config{})
	defer srv.Close()
	hs := srv.HTTPServer()
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout < hs.ReadHeaderTimeout ||
		hs.WriteTimeout <= hs.ReadTimeout || hs.IdleTimeout <= 0 {
		t.Fatalf("timeouts header/read/write/idle = %v/%v/%v/%v: want all set, header <= read < write",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.IdleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	resp, err := http.Post("http://"+ln.Addr().String()+"/infer", "application/json", strings.NewReader(`{"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("a whole request on the same server: status %d", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /infer HTTP/1.1\r\nHost: edge\r\nContent-Le"); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before hanging up; what matters is that it
	// hangs up, and does so because of its own timeout, not ours.
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(hs.ReadHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled half-header connection was not closed by the server: %v", err)
	}
	if waited := time.Since(start); waited < hs.ReadHeaderTimeout/2 {
		t.Errorf("connection closed after %v, before ReadHeaderTimeout %v could have fired", waited, hs.ReadHeaderTimeout)
	}
}

// slowEngine delays every dispatch so the admission queue observably
// fills during the overload flood regardless of how fast the kernels
// themselves run (pre-packed GEMM made the tiny test model quick
// enough to drain a 1-deep queue between arrivals).
type slowEngine struct {
	server.Engine
	delay time.Duration
}

func (s slowEngine) Infer(in *tensor.Tensor) (*tensor.Tensor, error) {
	time.Sleep(s.delay)
	return s.Engine.Infer(in)
}

// TestServerOverloadReturns429 floods a tiny queue and requires shed
// requests to come back 429 with a Retry-After hint.
func TestServerOverloadReturns429(t *testing.T) {
	_, eng := buildEngine(t, 1)
	srv := server.New(slowEngine{Engine: eng, delay: 2 * time.Millisecond},
		server.Config{QueueCap: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	const n = 24
	var (
		mu         sync.Mutex
		shed, ok   int
		retryAfter bool
	)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(server.InferRequest{Seed: int64(i)})
			resp, err := http.Post(ts.URL+"/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
				if resp.Header.Get("Retry-After") != "" {
					retryAfter = true
				}
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if shed == 0 {
		t.Fatal("no request was shed despite queue capacity 1 and 24 concurrent arrivals")
	}
	if !retryAfter {
		t.Error("429 responses carried no Retry-After header")
	}
	if got := srv.Metrics().Shed.Value(); got != uint64(shed) {
		t.Errorf("shed metric %d, want %d", got, shed)
	}
	if ok == 0 {
		t.Error("every request was shed; expected some admitted")
	}
}

// TestServerMetricsEndpoint scrapes /metrics after traffic and checks
// the exposition carries the serving families with sane values.
func TestServerMetricsEndpoint(t *testing.T) {
	_, eng := buildEngine(t, 2)
	srv := server.New(eng, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	for i := 0; i < 5; i++ {
		resp, _ := postInfer(t, ts.URL, server.InferRequest{Seed: int64(i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up request %d: status %d", i, resp.StatusCode)
		}
	}
	raw, series, err := server.ScrapeMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(raw, "# TYPE edgeserve_request_seconds summary") {
		t.Errorf("missing summary TYPE header in exposition:\n%s", raw)
	}
	if got := series[`edgeserve_requests_total{code="200"}`]; got != 5 {
		t.Errorf("requests_total 200 = %v, want 5", got)
	}
	if got := series["edgeserve_request_seconds_count"]; got != 5 {
		t.Errorf("request_seconds_count = %v, want 5", got)
	}
	if got := series["edgeserve_batches_total"]; got != 5 {
		t.Errorf("batches_total = %v, want 5: one dispatch per request", got)
	}
	if got := series["edgeserve_engine_seconds_count"]; got != 5 {
		t.Errorf("engine_seconds_count = %v, want 5", got)
	}
	if got := series["edgeserve_engine_inflight_max"]; got != 1 {
		t.Errorf("engine_inflight_max = %v, want 1 after sequential requests", got)
	}
	if _, gone := series["edgeserve_batch_size_max"]; gone || strings.Contains(raw, "edgeserve_batch_size") {
		t.Errorf("batch-size series still exported:\n%s", raw)
	}
	if _, okq := series[`edgeserve_request_seconds{quantile="0.99"}`]; !okq {
		t.Errorf("missing p99 quantile series:\n%s", raw)
	}
	if got := series[`edgeserve_exec_dtype{dtype="fp32"}`]; got != 1 {
		t.Errorf(`exec_dtype{dtype="fp32"} = %v, want 1`, got)
	}
	if got := series["edgeserve_model_weight_bytes"]; got <= 0 {
		t.Errorf("model_weight_bytes = %v, want > 0", got)
	}
	if got := series["edgeserve_fp32_kernel_dispatches"]; got < 1 {
		t.Errorf("fp32_kernel_dispatches = %v, want >= 1", got)
	}
}

// TestServerQuantizedMetrics boots the server on a QuantizeINT8 graph
// and asserts /metrics shows the int8 deployment: the dtype series flips
// to int8, the weight footprint drops 4x vs the FP32 twin, and the int8
// kernel dispatch gauge moves with traffic.
func TestServerQuantizedMetrics(t *testing.T) {
	_, fp32Eng := buildEngine(t, 1)
	fp32Bytes := fp32Eng.WeightBytes()
	fp32Eng.Close()

	g, _ := buildEngine(t, 1)
	graph.QuantizeINT8(g)
	eng, err := serving.NewEngine(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	for i := 0; i < 3; i++ {
		resp, _ := postInfer(t, ts.URL, server.InferRequest{Seed: int64(i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	raw, series, err := server.ScrapeMetrics(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if got := series[`edgeserve_exec_dtype{dtype="int8"}`]; got != 1 {
		t.Errorf(`exec_dtype{dtype="int8"} = %v, want 1; exposition:
%s`, got, raw)
	}
	got := series["edgeserve_model_weight_bytes"]
	if want := float64(fp32Bytes) / 4; got != want {
		t.Errorf("model_weight_bytes = %v, want %v (4x drop from fp32 %d)", got, want, fp32Bytes)
	}
	if got := series["edgeserve_int8_kernel_dispatches"]; got < 1 {
		t.Errorf("int8_kernel_dispatches = %v, want >= 1 after traffic", got)
	}
}

// TestServerHealthzAndDrain pins the readiness lifecycle: 200 while
// serving, 503 after Close, and /infer refuses new work after drain.
func TestServerHealthzAndDrain(t *testing.T) {
	_, eng := buildEngine(t, 1)
	srv := server.New(eng, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", resp.StatusCode)
	}
	r2, _ := postInfer(t, ts.URL, server.InferRequest{Seed: 1})
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer after drain: %d, want 503", r2.StatusCode)
	}
}

// TestServerBudgetSums: a response carries where its time went, and on
// an idle server the two parts account for the whole — queue_ms plus
// engine_ms is total_ms less the hand-back to the handler, and queue_ms
// is that of an empty queue, not of a batch window. The parts can never
// exceed the whole; the size of the gap and of the wait are asserted on
// the median of nine lone requests, so that one descheduling of the test
// process cannot fail it.
func TestServerBudgetSums(t *testing.T) {
	_, eng := buildEngine(t, 2)
	srv := server.New(eng, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	const n = 9
	var gaps, waits []float64
	for i := 0; i < n; i++ {
		resp, out := postInfer(t, ts.URL, server.InferRequest{Seed: int64(i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if out.EngineMs <= 0 || out.QueueMs < 0 {
			t.Fatalf("request %d: queue_ms %v engine_ms %v, want both measured", i, out.QueueMs, out.EngineMs)
		}
		gap := out.TotalMs - (out.QueueMs + out.EngineMs)
		if gap < -1e-6 {
			t.Errorf("request %d: queue_ms %v + engine_ms %v exceeds total_ms %v", i, out.QueueMs, out.EngineMs, out.TotalMs)
		}
		gaps = append(gaps, gap)
		waits = append(waits, out.QueueMs)
	}
	sort.Float64s(gaps)
	sort.Float64s(waits)
	if gap := gaps[n/2]; gap > 0.2 {
		t.Errorf("total_ms exceeds queue_ms + engine_ms by %.3f ms at the median, want <= 0.2 ms", gap)
	}
	if wait := waits[n/2]; wait >= 1 {
		t.Errorf("idle queue_ms %.3f at the median, want < 1 ms", wait)
	}
	m := srv.Metrics()
	if q, e := m.QueueWait.Count(), m.EngineTime.Count(); q != n || e != n {
		t.Errorf("queue-wait and engine-time summaries hold %d and %d observations, want %d each", q, e, n)
	}
}

// TestAttackAgainstLiveServer runs the built-in load generator against
// an httptest server at a modest rate and requires zero shed, zero
// failures, both replicas visibly used at once, and — for the seeds the
// attack sent — outputs bit-identical to a sequential executor's.
func TestAttackAgainstLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real load")
	}
	g, eng := buildEngine(t, 2)
	// The test model runs in tens of microseconds; slowed to 2 ms, the
	// requests of one burst are certain to overlap.
	srv := server.New(slowEngine{Engine: eng, delay: 2 * time.Millisecond}, server.Config{QueueCap: 128})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	rep, err := server.Attack(ts.URL, server.AttackOptions{
		Rate:     40,
		Duration: time.Second,
		Burst:    4,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.OK != rep.Sent {
		t.Fatalf("attack: %s", rep)
	}
	if rep.Shed != 0 || rep.Failed != 0 || rep.Deadline != 0 {
		t.Fatalf("attack saw rejects: %s", rep)
	}
	if got := srv.Metrics().Batches.Value(); got != uint64(rep.OK) {
		t.Errorf("%d dispatches for %d served requests, want one each", got, rep.OK)
	}
	if got := srv.Metrics().EngineInflightMax.Value(); got != 2 {
		t.Errorf("engine in-flight high-water mark %v, want 2: bursts of 4 against 2 replicas", got)
	}

	// One more burst of the attack's own seeds, this time keeping the
	// outputs: concurrent dispatch must not change a bit.
	const burst = 4
	outs := make([]server.InferResponse, burst)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if _, outs[i], err = post(ts.URL, server.InferRequest{Seed: int64(1 + i)}); err != nil {
				t.Errorf("seed %d: %v", 1+i, err)
			}
		}()
	}
	wg.Wait()
	ref := &graph.Executor{}
	for i, out := range outs {
		want, err := ref.Run(g, server.SeededInput(eng.InputShape(), int64(1+i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Output) != len(want.Data) {
			t.Fatalf("seed %d: %d outputs, want %d", 1+i, len(out.Output), len(want.Data))
		}
		for j := range want.Data {
			if out.Output[j] != want.Data[j] {
				t.Fatalf("seed %d: output[%d] = %v, sequential executor %v", 1+i, j, out.Output[j], want.Data[j])
			}
		}
	}
}
