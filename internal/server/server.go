package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edgebench/internal/metrics"
	"edgebench/internal/serving"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

// Metrics is the server's observability surface: every quantity the
// paper's serving analysis provisions by (request rate, tail latency,
// queue depth, shed rate) plus where a request's time went (queue wait,
// engine time) and how many ran at once. Exposed on /metrics in
// Prometheus text format.
type Metrics struct {
	// Registry renders the families below on /metrics.
	Registry *metrics.Registry
	// Requests counts completed HTTP requests by status code.
	Requests *metrics.CounterVec
	// Shed counts admission rejections (429s before any queueing).
	Shed *metrics.Counter
	// Batches counts dispatches to the engine, one request each; the name
	// is the one dashboards and the benchmark read.
	Batches *metrics.Counter
	// EngineErrors counts dispatches that failed inside the engine.
	EngineErrors *metrics.Counter
	// DeadlineDrops counts requests whose context expired while queued,
	// dropped before reaching the engine.
	DeadlineDrops *metrics.Counter
	// QueueDepth gauges requests currently waiting for a free dispatcher.
	QueueDepth *metrics.Gauge
	// InFlight gauges requests between admission and response.
	InFlight *metrics.Gauge
	// EngineInflightMax is the high-water count of requests inside the
	// engine at the same time — the single number that proves the
	// replicas ran concurrently (> 1 under concurrent load).
	EngineInflightMax *metrics.Gauge
	// Latency summarizes total request latency in seconds.
	Latency *metrics.Summary
	// QueueWait summarizes admission to a dispatcher picking the request
	// up, seconds.
	QueueWait *metrics.Summary
	// EngineTime summarizes the engine call itself, seconds. A request's
	// QueueWait and EngineTime add up to its Latency.
	EngineTime *metrics.Summary
	// ExecDType marks the engine's execution datatype: the active dtype's
	// series is 1 ({dtype="int8"} after a -quantize int8 deployment).
	ExecDType *metrics.GaugeVec
	// WeightBytes gauges the model's nominal parameter footprint —
	// parameter count × execution-dtype size, not resident bytes — the
	// series the 4x int8 footprint drop shows up in.
	WeightBytes *metrics.Gauge
	// Int8Dispatches / FP32Dispatches gauge cumulative compute-kernel
	// dispatches by datatype across the engine's replicas, refreshed on
	// each /metrics scrape from Backend.DispatchCounts. FusedDispatches gauges the subset (either
	// datatype) that ran a fused epilogue kernel — absorbed BN/activation
	// applied inside the kernel's output loop.
	Int8Dispatches  *metrics.Gauge
	FP32Dispatches  *metrics.Gauge
	FusedDispatches *metrics.Gauge
}

// NewMetrics builds the standard serving metric set on a fresh registry.
func NewMetrics() *Metrics {
	r := metrics.NewRegistry()
	return &Metrics{
		Registry:      r,
		Requests:      r.NewCounterVec("edgeserve_requests_total", "Completed HTTP inference requests by status code.", "code"),
		Shed:          r.NewCounter("edgeserve_shed_total", "Requests rejected at admission because the queue was full."),
		Batches:       r.NewCounter("edgeserve_batches_total", "Dispatches to the inference engine, one request each."),
		EngineErrors:  r.NewCounter("edgeserve_engine_errors_total", "Dispatches that failed inside the inference engine."),
		DeadlineDrops: r.NewCounter("edgeserve_deadline_drops_total", "Requests whose deadline expired while queued, dropped before the engine."),
		QueueDepth:    r.NewGauge("edgeserve_queue_depth", "Requests currently waiting for a free dispatcher."),
		InFlight:      r.NewGauge("edgeserve_inflight", "Requests between admission and response."),
		EngineInflightMax: r.NewGauge("edgeserve_engine_inflight_max",
			"Most requests inside the inference engine at the same time since start."),
		Latency:     r.NewSummary("edgeserve_request_seconds", "Total request latency in seconds (successful requests)."),
		QueueWait:   r.NewSummary("edgeserve_queue_wait_seconds", "Time requests spent queued before a dispatcher picked them up."),
		EngineTime:  r.NewSummary("edgeserve_engine_seconds", "Time requests spent inside the inference engine."),
		ExecDType:   r.NewGaugeVec("edgeserve_exec_dtype", "Execution datatype of the served model (active dtype is 1).", "dtype"),
		WeightBytes: r.NewGauge("edgeserve_model_weight_bytes", "Nominal model parameter footprint, bytes: parameter count x execution-dtype size, not resident bytes."),
		Int8Dispatches: r.NewGauge("edgeserve_int8_kernel_dispatches",
			"Cumulative conv/dense kernels dispatched on the int8 path across replicas."),
		FP32Dispatches: r.NewGauge("edgeserve_fp32_kernel_dispatches",
			"Cumulative conv/dense kernels dispatched on the FP32 path across replicas."),
		FusedDispatches: r.NewGauge("edgeserve_fused_kernel_dispatches",
			"Cumulative compute kernels that ran a fused epilogue (absorbed BN/activation) across replicas."),
	}
}

// Engine is the backend contract the server fronts: single-request
// inference with a declared concurrency, plus the introspection the
// metrics endpoint exports. serving.Engine is the single-process
// implementation; cluster.Pipeline satisfies the same contract across a
// chain of stage processes, so the whole HTTP surface (admission queue,
// dispatch, deadlines, metrics) fronts either without knowing which.
type Engine interface {
	Backend
	// InputShape is the shape one request tensor must have.
	InputShape() tensor.Shape
	// ExecDType labels the execution datatype ("fp32", "int8", ...).
	ExecDType() string
	// WeightBytes is the nominal parameter footprint: parameter count ×
	// execution-dtype size, not resident bytes.
	WeightBytes() int64
	// DispatchCounts reports cumulative kernel dispatches by path.
	DispatchCounts() (int8Kernels, fp32Kernels, fusedKernels int64)
	// Close drains the backend; subsequent Infer calls must fail.
	Close() error
}

// Server is the HTTP inference server: admission control and
// work-conserving dispatch in front of an Engine, with /infer, /healthz,
// and /metrics endpoints.
type Server struct {
	cfg      Config
	eng      Engine
	disp     *Dispatcher
	m        *Metrics
	mux      *http.ServeMux
	ready    atomic.Bool
	shape    tensor.Shape
	maxBody  int64 // /infer request body limit, bytes
	scrapeMu sync.Mutex
	onScrape []func()
}

// New wires a server around an engine. The engine must be built from a
// materialized graph (serving.NewEngine enforces this).
func New(eng Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:   cfg,
		eng:   eng,
		disp:  NewDispatcher(eng, cfg, m),
		m:     m,
		mux:   http.NewServeMux(),
		shape: eng.InputShape(),
	}
	s.maxBody = inferBodyLimit(s.shape.NumElems())
	m.ExecDType.Set(eng.ExecDType(), 1)
	m.WeightBytes.Set(float64(eng.WeightBytes()))
	s.mux.HandleFunc("/infer", s.handleInfer)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	metricsHandler := m.Registry.Handler()
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Refresh the dispatch gauges from the engine at scrape time so
		// the exported counts reflect kernels run since start.
		i8, f32, fz := eng.DispatchCounts()
		m.Int8Dispatches.Set(float64(i8))
		m.FP32Dispatches.Set(float64(f32))
		m.FusedDispatches.Set(float64(fz))
		s.scrapeMu.Lock()
		hooks := append([]func(){}, s.onScrape...)
		s.scrapeMu.Unlock()
		for _, fn := range hooks {
			fn()
		}
		metricsHandler.ServeHTTP(w, r)
	})
	s.ready.Store(true)
	return s
}

// OnScrape registers fn to run at every /metrics scrape, before the
// registry renders — the hook backends use to refresh gauges that are
// expensive or remote (the cluster dispatcher polls per-stage stats
// here). Safe to call concurrently with serving.
func (s *Server) OnScrape(fn func()) {
	s.scrapeMu.Lock()
	s.onScrape = append(s.onScrape, fn)
	s.scrapeMu.Unlock()
}

// Handler returns the root handler (tests mount it on httptest servers;
// a listening deployment wants HTTPServer's timeouts around it).
func (s *Server) Handler() http.Handler { return s.mux }

// The net/http timeouts of a listening deployment. None is a tuning
// knob: each bounds how long one peer can hold a connection without the
// server making progress.
const (
	// readHeaderTimeout bounds a request's header read, the slow-loris
	// surface: headers arrive in the first packets or not at all.
	readHeaderTimeout = 5 * time.Second
	// readTimeout bounds headers plus body. The largest body /infer
	// accepts (inferBodyLimit: ~5 MB for a 3x224x224 model) fits in it
	// at 170 KB/s.
	readTimeout = 30 * time.Second
	// idleTimeout bounds a keep-alive connection between requests.
	idleTimeout = 2 * time.Minute
	// enginePassCeiling bounds one request's time inside the engine for
	// writeTimeout's derivation: five times the slowest zoo model's frame
	// (Inception-v4, ~3 s on the 2-core reference host), the margin being
	// for replicas that share the kernel pool's cores.
	enginePassCeiling = 15 * time.Second
)

// writeTimeout bounds a request from the end of its headers to the end
// of its response, so it must outlast the body read and the longest
// legitimate residence: a request admitted at the back of a full queue
// waits for the engine passes ahead of it, which the backend runs
// concurrency at a time, and then for its own.
func (c Config) writeTimeout(concurrency int) time.Duration {
	passesAhead := (c.QueueCap + concurrency - 1) / concurrency
	return readTimeout + time.Duration(passesAhead+1)*enginePassCeiling
}

// HTTPServer returns the http.Server a deployment listens with: the
// root handler behind read-header, read, write and idle timeouts, so a
// client that stalls mid-header, mid-body or mid-response is
// disconnected instead of holding a connection open indefinitely.
func (s *Server) HTTPServer() *http.Server {
	return &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      s.cfg.writeTimeout(s.disp.loops),
		IdleTimeout:       idleTimeout,
	}
}

// Metrics exposes the metric set for in-process assertions.
func (s *Server) Metrics() *Metrics { return s.m }

// Close begins graceful drain: readiness flips to failing (load
// balancers stop sending), new work is rejected with 503, queued work is
// served to completion, and the engine's replicas are drained. Callers
// should http.Server.Shutdown first so in-flight connections finish.
func (s *Server) Close() error {
	s.ready.Store(false)
	s.disp.Close()
	return s.eng.Close()
}

// InferRequest is the /infer request body. Either Data carries a full
// input tensor (length must match the model's input shape) or Seed asks
// the server to generate a deterministic pseudo-random input — the
// load-generator path, which keeps attack payloads tiny.
type InferRequest struct {
	Data       []float32 `json:"data,omitempty"`
	Seed       int64     `json:"seed,omitempty"`
	DeadlineMs float64   `json:"deadline_ms,omitempty"`
}

// InferResponse is the /infer response body.
type InferResponse struct {
	// Argmax is the index of the largest output element (the predicted
	// class for classifiers).
	Argmax int `json:"argmax"`
	// Output is the full output tensor, flattened.
	Output []float32 `json:"output"`
	// BatchSize is always 1: every request is dispatched on its own. The
	// field stays for clients written against the batching server.
	BatchSize int `json:"batch_size"`
	// TotalMs is the server-side latency: admission to engine result.
	TotalMs float64 `json:"total_ms"`
	// QueueMs and EngineMs are the request's budget: admission to a
	// dispatcher picking it up, and the engine call. They sum to TotalMs
	// less the hand-back to the handler's goroutine.
	QueueMs  float64 `json:"queue_ms"`
	EngineMs float64 `json:"engine_ms"`
}

// inferBodyLimit is the largest /infer body the server reads for a
// model of n input elements: 32 bytes per element — a float64 printed
// in full is 25 with its comma, a float32 at most 16 — plus 4 KB for
// the envelope's other fields and whitespace. Anything longer cannot be
// a well-formed request for this model, so it is refused unread.
func inferBodyLimit(n int) int64 { return 32*int64(n) + 4<<10 }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	// An empty body is legal (seed-0 generated input), so io.EOF passes.
	var req InferRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		s.fail(w, code, fmt.Errorf("bad request body: %w", err))
		return
	}
	in, err := s.buildInput(req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}

	// Deadline propagation: explicit per-request deadline wins, then the
	// server default; both ride the request context so queue and
	// dispatcher observe the same clock.
	ctx := r.Context()
	deadline := s.cfg.Deadline
	if req.DeadlineMs > 0 {
		deadline = time.Duration(req.DeadlineMs * float64(time.Millisecond))
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	s.m.InFlight.Add(1)
	defer s.m.InFlight.Add(-1)
	start := time.Now()
	out, budget, err := s.disp.Do(ctx, in)
	if err != nil {
		code := statusFor(err)
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter.Seconds()+1)))
		}
		s.fail(w, code, err)
		return
	}
	// encoding/json refuses NaN and ±Inf, and by then the 200 would be on
	// the wire with an empty body: check before touching w.
	if i := firstNonFinite(out.Data); i >= 0 {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("model output is not finite: output[%d] = %v", i, out.Data[i]))
		return
	}
	elapsed := time.Since(start)
	s.m.Latency.Observe(elapsed.Seconds())
	s.m.Requests.Inc("200")
	w.Header().Set("Content-Type", "application/json")
	// A failed write means the client went away; nothing to recover.
	_ = json.NewEncoder(w).Encode(InferResponse{
		Argmax:    argmax(out.Data),
		Output:    out.Data,
		BatchSize: 1,
		TotalMs:   ms(elapsed),
		QueueMs:   ms(budget.Queue),
		EngineMs:  ms(budget.Engine),
	})
}

// ms renders a duration in fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// handleHealthz is the readiness probe: 200 while serving, 503 once
// drain has begun so load balancers stop routing here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	_, _ = w.Write([]byte("ok\n"))
}

// buildInput materializes the request's input tensor.
func (s *Server) buildInput(req InferRequest) (*tensor.Tensor, error) {
	n := s.shape.NumElems()
	if len(req.Data) > 0 {
		if len(req.Data) != n {
			return nil, fmt.Errorf("data length %d does not match input shape %v (%d elements)", len(req.Data), s.shape, n)
		}
		return tensor.FromData(req.Data, s.shape...), nil
	}
	return SeededInput(s.shape, req.Seed), nil
}

// SeededInput generates the deterministic pseudo-random input tensor a
// request seed maps to. It is shared by the /infer seed path and the
// smoke tools, so bit-exactness comparisons across processes and
// topologies run on identical inputs.
func SeededInput(shape tensor.Shape, seed int64) *tensor.Tensor {
	in := tensor.New(shape...)
	rng := stats.NewRNG(seed)
	for i := range in.Data {
		in.Data[i] = float32(rng.Float64()*2 - 1)
	}
	return in
}

// fail writes the JSON error envelope and records the status metric.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.m.Requests.Inc(strconv.Itoa(code))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// statusFor maps pipeline errors onto HTTP semantics. Any error in the
// chain may declare itself Unavailable() (cluster.StageError does, when
// a stage process dies) to get 503 rather than a generic 500, so load
// balancers retry elsewhere instead of treating the failure as a bug.
func statusFor(err error) int {
	var unavail interface{ Unavailable() bool }
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrClosed), errors.Is(err, serving.ErrEngineClosed):
		return http.StatusServiceUnavailable
	case errors.As(err, &unavail) && unavail.Unavailable():
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// firstNonFinite returns the index of the first NaN or ±Inf element, or
// -1 when every element is finite.
func firstNonFinite(xs []float32) int {
	for i, x := range xs {
		if f := float64(x); math.IsNaN(f) || math.IsInf(f, 0) {
			return i
		}
	}
	return -1
}

// argmax returns the index of the largest element (0 for empty).
func argmax(xs []float32) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
