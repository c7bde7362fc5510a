package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"edgebench/internal/exchange"
	"edgebench/internal/serving"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

// Connection roles, declared by the Hello frame's payload: the
// dispatcher opens one "control" connection per worker (config, stats,
// shutdown) and each hop of the tensor chain is one "data" connection
// (tensors downstream, credits upstream, full duplex).
const (
	RoleControl = "control"
	RoleData    = "data"
)

// DefaultCredits is the per-hop credit window: how many tensor frames a
// receiver lets its upstream keep in flight. Small enough that a slow
// stage throttles the chain quickly, large enough to keep the pipe full
// across stage-latency jitter.
const DefaultCredits = 8

// WorkerConfig is the payload of the Config frame a dispatcher ships to
// a stage worker: the stage subgraph (an exchange container, weights
// included), where to send outputs, and the execution knobs. On the wire
// it is MarshalBinary's layout, never plain JSON.
type WorkerConfig struct {
	// Stage is this worker's position in the chain (0-based).
	Stage int `json:"stage"`
	// Device labels the simulated device this stage was placed on.
	Device string `json:"device,omitempty"`
	// Graph is the stage subgraph as an exchange container with weights.
	// It rides after the JSON fields as raw bytes, so no JSON scanner
	// ever reads a parameter.
	Graph []byte `json:"-"`
	// Downstream is the TCP address outputs go to: the next stage's
	// listener, or the dispatcher's result listener for the last stage.
	Downstream string `json:"downstream"`
	// Credits is the window this worker grants its upstream (default
	// DefaultCredits).
	Credits int `json:"credits,omitempty"`
	// Replicas sizes the stage's serving.Engine replica pool, and with it
	// the number of frames the stage computes at once (one compute loop
	// per replica). Zero or less means the worker's own core count — the
	// dispatcher cannot know a remote device's; 1 is one frame at a time.
	Replicas int `json:"replicas,omitempty"`
}

// MarshalBinary encodes c as a Config frame payload: a u32
// little-endian length, c's fields as JSON without the graph, then
// c.Graph as raw bytes.
func (c WorkerConfig) MarshalBinary() ([]byte, error) {
	js, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal worker config: %w", err)
	}
	p := make([]byte, 4, 4+len(js)+len(c.Graph))
	binary.LittleEndian.PutUint32(p, uint32(len(js)))
	return append(append(p, js...), c.Graph...), nil
}

// UnmarshalBinary decodes a Config frame payload MarshalBinary built.
// c.Graph aliases p.
func (c *WorkerConfig) UnmarshalBinary(p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("cluster: %d-byte worker config is shorter than its length prefix", len(p))
	}
	n := binary.LittleEndian.Uint32(p)
	if uint64(n) > uint64(len(p)-4) {
		return fmt.Errorf("cluster: worker config length %d runs past the %d-byte payload", n, len(p))
	}
	if err := json.Unmarshal(p[4:4+n], c); err != nil {
		return fmt.Errorf("cluster: bad worker config: %w", err)
	}
	c.Graph = p[4+n:]
	return nil
}

// StageStats is one worker's counter snapshot, shipped as the Stats
// frame payload and aggregated by the dispatcher into /metrics.
type StageStats struct {
	Stage          int     `json:"stage"`
	Device         string  `json:"device,omitempty"`
	FramesIn       uint64  `json:"frames_in"`
	FramesOut      uint64  `json:"frames_out"`
	BytesIn        uint64  `json:"bytes_in"`
	BytesOut       uint64  `json:"bytes_out"`
	CreditStalls   uint64  `json:"credit_stalls"`
	QueueDepth     int     `json:"queue_depth"`
	ComputeSeconds float64 `json:"compute_seconds"`
	// P50Ms/P95Ms are per-frame stage compute latency quantiles.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	// Concurrency is how many frames the stage can compute at once (its
	// compute-loop count); InflightMax is the most it ever has.
	Concurrency int `json:"concurrency"`
	InflightMax int `json:"inflight_max"`
	// Kernel dispatch counters by path, for the pipeline-wide gauges.
	Int8Kernels  int64 `json:"int8_kernels"`
	FP32Kernels  int64 `json:"fp32_kernels"`
	FusedKernels int64 `json:"fused_kernels"`
}

// credits is a counting semaphore carrying a hop's flow-control window.
type credits struct {
	tokens chan struct{}
	stalls atomic.Uint64
}

func newCredits() *credits {
	// Capacity generously above any sane window so release never blocks
	// even against a misbehaving peer double-granting.
	return &credits{tokens: make(chan struct{}, 4096)}
}

// acquire takes one token, blocking until the peer grants credit or
// done closes. It reports whether a token was obtained and counts a
// stall whenever it had to wait.
func (c *credits) acquire(done <-chan struct{}) bool {
	select {
	case <-c.tokens:
		return true
	default:
	}
	c.stalls.Add(1)
	select {
	case <-c.tokens:
		return true
	case <-done:
		return false
	}
}

// release grants n tokens, dropping any beyond capacity (a protocol
// violation by the peer, not worth blocking over).
func (c *credits) release(n uint64) {
	for i := uint64(0); i < n; i++ {
		select {
		case c.tokens <- struct{}{}:
		default:
			return
		}
	}
}

// inFrame is one tensor waiting for stage compute.
type inFrame struct {
	seq uint64
	in  *tensor.Tensor
}

// Worker is one pipeline stage process: it listens for the dispatcher's
// control connection and the upstream data connection, runs every
// received tensor through its subgraph, and forwards results downstream
// under the next hop's credit window.
type Worker struct {
	ln net.Listener

	// Logf, when set, receives progress lines (cmd/edgepipe wires it to
	// stderr; tests leave it nil).
	Logf func(format string, args ...any)

	mu       sync.Mutex
	cfg      *WorkerConfig
	eng      *serving.Engine
	down     net.Conn
	ctrl     net.Conn
	upstream net.Conn
	ctrlMu   sync.Mutex // serializes frames onto ctrl
	upMu     sync.Mutex // serializes frames onto upstream
	downMu   sync.Mutex // serializes frames onto down

	downCredits *credits
	ready       chan struct{} // closed once configured
	inQ         chan inFrame
	eos         chan struct{} // closed when upstream sends EOS
	eosOnce     sync.Once
	loops       atomic.Int32 // compute loops that have not yet seen the stream end
	draining    atomic.Bool
	eosSent     atomic.Bool

	framesIn, framesOut, bytesIn, bytesOut atomic.Uint64
	computeNs                              atomic.Int64
	statMu                                 sync.Mutex // guards the three below
	latency                                *stats.Digest
	inflight, inflightMax                  int // frames inside eng.Infer now / at most

	done    chan struct{} // closed on fatal error or shutdown
	once    sync.Once
	exitErr error
	wg      sync.WaitGroup
}

// NewWorker starts listening on addr (host:port, port 0 for ephemeral).
// Run must be called to serve.
func NewWorker(addr string) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker listen: %w", err)
	}
	return &Worker{
		ln:      ln,
		ready:   make(chan struct{}),
		eos:     make(chan struct{}),
		done:    make(chan struct{}),
		latency: stats.NewDigest(1024, 1),
	}, nil
}

// Addr returns the worker's listen address (dial this).
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// stage returns the configured stage index (-1 before configuration),
// for error messages.
func (w *Worker) stage() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cfg == nil {
		return -1
	}
	return w.cfg.Stage
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// exit records the worker's terminal condition exactly once and wakes
// every goroutine. A non-nil err is also reported to the dispatcher as
// an Error frame on the control connection.
func (w *Worker) exit(err error) {
	w.once.Do(func() {
		w.exitErr = err
		if err != nil {
			w.mu.Lock()
			ctrl, cfg := w.ctrl, w.cfg
			w.mu.Unlock()
			if ctrl != nil {
				stage := 0
				if cfg != nil {
					stage = cfg.Stage
				}
				w.ctrlMu.Lock()
				// Best effort: the control conn may be the thing that died.
				_ = WriteFrame(ctrl, ControlFrame(KindError, uint64(stage), []byte(err.Error())))
				w.ctrlMu.Unlock()
			}
		}
		close(w.done)
	})
}

// Run serves until ctx cancels, the dispatcher sends Shutdown, or a
// fatal error occurs (which is also reported upstream on the control
// connection). It owns the accept loop and everything that starts.
func (w *Worker) Run(ctx context.Context) error {
	w.wg.Add(1)
	go w.acceptLoop(ctx)
	select {
	case <-ctx.Done():
		w.exit(ctx.Err())
	case <-w.done:
	}
	// Unblock every conn reader, then await the goroutines.
	_ = w.ln.Close()
	w.mu.Lock()
	for _, c := range []net.Conn{w.ctrl, w.upstream, w.down} {
		if c != nil {
			_ = c.Close()
		}
	}
	w.mu.Unlock()
	w.wg.Wait()
	if w.eng != nil {
		_ = w.eng.Close()
	}
	return w.exitErr
}

// acceptLoop hands each inbound connection to its role handler. The
// chain topology has exactly one control and one data peer; extra
// connections of a taken role are rejected.
func (w *Worker) acceptLoop(ctx context.Context) {
	defer w.wg.Done()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			select {
			case <-w.done:
			case <-ctx.Done():
			default:
				w.exit(fmt.Errorf("cluster: worker accept: %w", err))
			}
			return
		}
		hello, err := ReadFrame(conn)
		if err != nil || hello.Kind != KindHello {
			w.logf("worker: rejecting connection with bad hello: %v", err)
			_ = conn.Close()
			continue
		}
		switch role := string(hello.Payload); role {
		case RoleControl:
			if !w.adopt(&w.ctrl, conn) {
				_ = conn.Close()
				continue
			}
			// acceptLoop holds its own wg slot until it returns, so Run's
			// Wait cannot observe zero between this Add and the reader
			// starting.
			w.wg.Add(1) // edgelint:ignore wg-add
			go w.controlLoop(ctx, conn)
		case RoleData:
			if !w.adopt(&w.upstream, conn) {
				_ = conn.Close()
				continue
			}
			// Same slot-held argument as the control branch above.
			w.wg.Add(1) // edgelint:ignore wg-add
			go w.upstreamLoop(ctx, conn)
		default:
			w.logf("worker: rejecting connection with unknown role %q", role)
			_ = conn.Close()
		}
	}
}

// adopt installs conn into the slot unless one is already present.
func (w *Worker) adopt(slot *net.Conn, conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if *slot != nil {
		return false
	}
	*slot = conn
	return true
}

// controlLoop services the dispatcher's connection: Config, StatsReq,
// Shutdown.
func (w *Worker) controlLoop(ctx context.Context, conn net.Conn) {
	defer w.wg.Done()
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			select {
			case <-w.done:
			case <-ctx.Done():
			default:
				// Losing the dispatcher is fatal: nobody can shut us down.
				w.exit(fmt.Errorf("cluster: control connection lost: %w", err))
			}
			return
		}
		switch f.Kind {
		case KindConfig:
			if err := w.configure(f.Payload); err != nil {
				w.exit(err)
				return
			}
			// Ready carries the stage's compute-loop count; the dispatcher
			// sizes the frames it keeps in flight from it.
			w.ctrlMu.Lock()
			err := WriteFrame(conn, ControlFrame(KindReady, uint64(w.eng.Concurrency()), nil))
			w.ctrlMu.Unlock()
			if err != nil {
				w.exit(fmt.Errorf("cluster: ready reply: %w", err))
				return
			}
		case KindStatsReq:
			payload, err := json.Marshal(w.snapshot())
			if err == nil {
				w.ctrlMu.Lock()
				err = WriteFrame(conn, ControlFrame(KindStats, f.Seq, payload))
				w.ctrlMu.Unlock()
			}
			if err != nil {
				w.exit(fmt.Errorf("cluster: stats reply: %w", err))
				return
			}
		case KindShutdown:
			w.drain()
			return
		default:
			w.exit(fmt.Errorf("cluster: unexpected %s frame on control connection", f.Kind))
			return
		}
	}
}

// configure builds the stage: import the subgraph (verify-gated by
// exchange.Import), spin up the engine, warm it — one run of the stage's
// program, an arena for each other replica — dial downstream, and start
// one compute loop per inference the engine can run at once.
func (w *Worker) configure(payload []byte) error {
	var cfg WorkerConfig
	if err := cfg.UnmarshalBinary(payload); err != nil {
		return err
	}
	if cfg.Credits <= 0 {
		cfg.Credits = DefaultCredits
	}
	if cfg.Replicas <= 0 {
		// This device's cores, not GOMAXPROCS: a launcher may still be
		// holding that at 1 while the stage is configured and raise it
		// before traffic starts.
		cfg.Replicas = runtime.NumCPU()
	}
	g, err := exchange.Import(cfg.Graph)
	if err != nil {
		return fmt.Errorf("cluster: stage %d graph rejected: %w", cfg.Stage, err)
	}
	eng, err := serving.NewEngine(g, cfg.Replicas)
	if err != nil {
		return fmt.Errorf("cluster: stage %d engine: %w", cfg.Stage, err)
	}
	if err := eng.Warmup(); err != nil {
		_ = eng.Close()
		return fmt.Errorf("cluster: stage %d warmup: %w", cfg.Stage, err)
	}
	down, err := net.DialTimeout("tcp", cfg.Downstream, 10*time.Second)
	if err != nil {
		_ = eng.Close()
		return fmt.Errorf("cluster: stage %d dial downstream %s: %w", cfg.Stage, cfg.Downstream, err)
	}
	if err := WriteFrame(down, ControlFrame(KindHello, uint64(cfg.Stage), []byte(RoleData))); err != nil {
		_ = eng.Close()
		_ = down.Close()
		return fmt.Errorf("cluster: stage %d downstream hello: %w", cfg.Stage, err)
	}
	w.mu.Lock()
	if w.cfg != nil {
		w.mu.Unlock()
		_ = eng.Close()
		_ = down.Close()
		return errors.New("cluster: worker configured twice")
	}
	w.cfg = &cfg
	w.eng = eng
	w.down = down
	w.downCredits = newCredits()
	w.inQ = make(chan inFrame, cfg.Credits)
	w.mu.Unlock()
	// controlLoop, our caller, holds a wg slot until it returns, so Run's
	// Wait cannot observe zero between these Adds and the goroutines.
	w.wg.Add(1)
	go w.downstreamLoop(down)
	n := eng.Concurrency()
	w.loops.Store(int32(n))
	for i := 0; i < n; i++ {
		w.wg.Add(1)
		go w.computeLoop()
	}
	close(w.ready)
	w.logf("worker: stage %d ready (%d ops, %d compute loops, downstream %s)", cfg.Stage, g.NumOps(), n, cfg.Downstream)
	return nil
}

// upstreamLoop receives tensor frames from the previous hop and feeds
// the compute queue, granting the initial credit window first.
func (w *Worker) upstreamLoop(ctx context.Context, conn net.Conn) {
	defer w.wg.Done()
	select {
	case <-w.ready:
	case <-w.done:
		return
	case <-ctx.Done():
		return
	}
	w.upMu.Lock()
	err := WriteFrame(conn, ControlFrame(KindCredit, uint64(w.cfg.Credits), nil))
	w.upMu.Unlock()
	if err != nil {
		w.exit(fmt.Errorf("cluster: initial credit grant: %w", err))
		return
	}
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			select {
			case <-w.done:
			case <-ctx.Done():
			default:
				if w.draining.Load() && (errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed)) {
					// Upstream closed while we drain: no more frames can
					// arrive, so treat the loss as end-of-stream and let
					// the compute loops flush and exit.
					w.eosOnce.Do(func() { close(w.eos) })
					return
				}
				w.exit(fmt.Errorf("cluster: stage %d upstream connection lost: %w", w.stage(), err))
			}
			return
		}
		switch f.Kind {
		case KindTensor:
			in, err := f.Tensor()
			if err != nil {
				w.exit(err)
				return
			}
			w.framesIn.Add(1)
			w.bytesIn.Add(uint64(f.EncodedLen()))
			select {
			case w.inQ <- inFrame{seq: f.Seq, in: in}:
			case <-w.done:
				return
			}
		case KindEOS:
			w.eosOnce.Do(func() { close(w.eos) })
			return
		default:
			w.exit(fmt.Errorf("cluster: unexpected %s frame on data connection", f.Kind))
			return
		}
	}
}

// downstreamLoop reads the next hop's credit grants (and error reports)
// off the downstream connection.
func (w *Worker) downstreamLoop(conn net.Conn) {
	defer w.wg.Done()
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			select {
			case <-w.done:
			default:
				// Once our EOS is out, the downstream peer hanging up is how
				// a drained chain unwinds, back to front, and what ends this
				// worker: it stays until then so that the peer's late credit
				// grants never meet a closed socket, whose reset would take
				// the frames the peer has not read yet with it.
				if w.eosSent.Load() {
					w.exit(nil)
				} else {
					w.exit(fmt.Errorf("cluster: stage %d downstream connection lost: %w", w.stage(), err))
				}
			}
			return
		}
		switch f.Kind {
		case KindCredit:
			w.downCredits.release(f.Seq)
		case KindError:
			w.exit(fmt.Errorf("cluster: downstream stage failed: %s", f.Payload))
			return
		default:
			w.exit(fmt.Errorf("cluster: unexpected %s frame from downstream", f.Kind))
			return
		}
	}
}

// computeLoop is one of the stage's identical execution loops; configure
// starts as many as the engine runs inferences at once, so a stage with
// two replicas computes two queued frames side by side (a core each)
// while a lone frame still fans its kernels out over the idle cores.
// Each loop takes a frame from inQ, runs it through the engine, forwards
// the result under the downstream credit window, and grants one credit
// back upstream. Frames may therefore leave a stage out of order; nothing
// downstream cares, because the dispatcher matches results to requests by
// seq. The stream ends in order all the same: a loop retires when it
// finds upstream's EOS and an empty queue, every loop forwards its frame
// before it looks again, so the last one to retire knows every frame is
// out and passes the stage's one EOS on; the worker then ends when the
// downstream peer hangs up (downstreamLoop).
func (w *Worker) computeLoop() {
	defer w.wg.Done()
	for {
		var f inFrame
		select {
		case f = <-w.inQ:
		case <-w.eos:
			// Drain whatever arrived before EOS first.
			select {
			case f = <-w.inQ:
			default:
				if w.loops.Add(-1) == 0 {
					w.eosSent.Store(true)
					w.downMu.Lock()
					_ = WriteFrame(w.down, ControlFrame(KindEOS, 0, nil))
					w.downMu.Unlock()
				}
				return
			}
		case <-w.done:
			return
		}
		w.statMu.Lock()
		w.inflight++
		w.inflightMax = max(w.inflightMax, w.inflight)
		w.statMu.Unlock()
		start := time.Now()
		out, err := w.eng.Infer(f.in)
		elapsed := time.Since(start)
		w.computeNs.Add(elapsed.Nanoseconds())
		w.statMu.Lock()
		w.inflight--
		w.latency.Add(elapsed.Seconds() * 1e3)
		w.statMu.Unlock()
		if err != nil {
			w.exit(fmt.Errorf("cluster: stage %d inference: %w", w.cfg.Stage, err))
			return
		}
		if !w.downCredits.acquire(w.done) {
			return
		}
		of := TensorFrame(f.seq, out)
		w.downMu.Lock()
		err = WriteFrame(w.down, of)
		w.downMu.Unlock()
		if err != nil {
			w.exit(fmt.Errorf("cluster: forward downstream: %w", err))
			return
		}
		w.framesOut.Add(1)
		w.bytesOut.Add(uint64(of.EncodedLen()))
		// The frame's slot is free: grant the upstream one more.
		w.mu.Lock()
		up := w.upstream
		w.mu.Unlock()
		if up != nil {
			w.upMu.Lock()
			err := WriteFrame(up, ControlFrame(KindCredit, 1, nil))
			w.upMu.Unlock()
			if err != nil && !w.draining.Load() {
				w.exit(fmt.Errorf("cluster: credit grant: %w", err))
				return
			}
		}
	}
}

// drain performs graceful shutdown. A stage with a live upstream data
// connection must NOT cut itself loose on Shutdown: the chain drains in
// stream order, so it keeps serving until the upstream EOS (or upstream
// loss, which upstreamLoop converts to end-of-stream while draining)
// reaches it — exiting early here would close sockets its neighbors are
// still using mid-drain. Only a stage with no upstream to wait for
// (never configured, or configured but never connected) ends itself.
func (w *Worker) drain() {
	w.draining.Store(true)
	select {
	case <-w.ready:
		w.mu.Lock()
		up := w.upstream
		w.mu.Unlock()
		if up == nil {
			// No upstream will ever send EOS; drain what we have.
			w.eosOnce.Do(func() { close(w.eos) })
		}
	default:
		w.exit(nil)
	}
}

// snapshot collects the worker's counters.
func (w *Worker) snapshot() StageStats {
	st := StageStats{
		FramesIn:       w.framesIn.Load(),
		FramesOut:      w.framesOut.Load(),
		BytesIn:        w.bytesIn.Load(),
		BytesOut:       w.bytesOut.Load(),
		ComputeSeconds: float64(w.computeNs.Load()) / 1e9,
	}
	w.mu.Lock()
	cfg, eng := w.cfg, w.eng
	w.mu.Unlock()
	if cfg != nil {
		st.Stage = cfg.Stage
		st.Device = cfg.Device
		st.QueueDepth = len(w.inQ)
	}
	if w.downCredits != nil {
		st.CreditStalls = w.downCredits.stalls.Load()
	}
	if eng != nil {
		st.Concurrency = eng.Concurrency()
		st.Int8Kernels, st.FP32Kernels, st.FusedKernels = eng.DispatchCounts()
	}
	w.statMu.Lock()
	st.InflightMax = w.inflightMax
	if w.latency.Count() > 0 {
		st.P50Ms = w.latency.Quantile(0.5)
		st.P95Ms = w.latency.Quantile(0.95)
	}
	w.statMu.Unlock()
	return st
}
