// Package server is the live network surface of edgebench: a real HTTP
// inference server fronting the serving.Engine replica pool. Where
// internal/serving *simulates* the paper's §VI-C single-batch serving
// regime, this package actually runs it — requests arrive over
// stdlib net/http, wait in a bounded admission queue, execute one at a
// time on whichever engine replica is free, and are observable through a
// Prometheus-text /metrics endpoint — so the analytic envelope can be
// validated against a live process under load.
//
// The pipeline is queue → dispatchers → replica pool:
//
//	POST /infer ─▶ admission (bounded queue, 429 on overflow)
//	            ─▶ one dispatch loop per inference the backend runs at once
//	            ─▶ Engine.Infer on an idle executor replica
//
// It is the c-server FIFO queue serving.Simulate models: a request waits
// only while every replica is busy. Deadlines ride on context.Context
// end to end: a request whose context expires while queued is dropped
// before dispatch and never touches the engine.
package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"edgebench/internal/tensor"
)

// ErrOverloaded reports an admission rejection: the bounded queue was
// full when the request arrived. The HTTP layer translates it to
// 429 + Retry-After, the standard backpressure signal.
var ErrOverloaded = errors.New("server: queue full, request shed")

// ErrClosed reports a request submitted after shutdown began.
var ErrClosed = errors.New("server: shutting down")

// Backend runs single-request inferences and says how many it runs at
// once. *serving.Engine is the production implementation; tests
// substitute instrumented fakes.
type Backend interface {
	// Infer runs one forward pass. Safe for concurrent use.
	Infer(in *tensor.Tensor) (*tensor.Tensor, error)
	// Concurrency is the number of Infer calls that make progress at the
	// same time (an engine's replicas, a pipeline's frames in flight).
	// The dispatcher keeps exactly that many inside the backend.
	Concurrency() int
}

// Config parameterizes the serving pipeline.
type Config struct {
	// QueueCap bounds the admission queue; arrivals beyond it are shed
	// with ErrOverloaded (default 64).
	QueueCap int
	// Deadline, when positive, is applied to requests that carry no
	// deadline of their own.
	Deadline time.Duration
	// RetryAfter is the backoff hint attached to 429 responses
	// (default 500ms).
	RetryAfter time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 500 * time.Millisecond
	}
	return c
}

// Budget splits a served request's residence in the dispatcher: Queue
// is admission to a dispatch loop picking it up, Engine the backend call.
type Budget struct {
	Queue, Engine time.Duration
}

// result is what a dispatch loop hands back to a waiting request.
type result struct {
	out    *tensor.Tensor
	err    error
	budget Budget
}

// request is one queued inference.
type request struct {
	ctx  context.Context
	in   *tensor.Tensor
	enq  time.Time
	done chan result // buffered(1): a loop never blocks delivering
}

// Dispatcher is the work-conserving scheduler: a bounded queue drained
// by as many dispatch loops as the backend runs inferences at once, each
// taking one live request, running it, delivering the result and coming
// straight back. There is no batch window: an admitted request waits
// only while every loop is inside the backend. Safe for concurrent use.
type Dispatcher struct {
	be       Backend
	m        *Metrics
	loops    int // dispatch loops: the backend's concurrency, at least 1
	queue    chan *request
	stop     chan struct{}
	wg       sync.WaitGroup
	inEngine atomic.Int64 // requests inside be.Infer right now

	mu     sync.RWMutex
	closed bool
}

// NewDispatcher starts the dispatch loops. m may be nil.
func NewDispatcher(be Backend, cfg Config, m *Metrics) *Dispatcher {
	cfg = cfg.withDefaults()
	if m == nil {
		m = NewMetrics()
	}
	d := &Dispatcher{
		be:    be,
		m:     m,
		loops: max(be.Concurrency(), 1),
		queue: make(chan *request, cfg.QueueCap),
		stop:  make(chan struct{}),
	}
	d.wg.Add(d.loops)
	for i := 0; i < d.loops; i++ {
		go d.loop()
	}
	return d
}

// Do submits one request and blocks until it has been served, its
// context expires, or admission rejects it. It returns the output, where
// the time went, and an error: ErrOverloaded when shed at admission,
// ErrClosed after shutdown, or the context's error when the deadline
// fired first.
func (d *Dispatcher) Do(ctx context.Context, in *tensor.Tensor) (*tensor.Tensor, Budget, error) {
	if err := ctx.Err(); err != nil {
		return nil, Budget{}, err
	}
	r := &request{ctx: ctx, in: in, enq: time.Now(), done: make(chan result, 1)}

	// The read lock pins the open/closed decision against a concurrent
	// Close: once Close holds the write lock, no request can slip into
	// the queue behind the drain.
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		return nil, Budget{}, ErrClosed
	}
	select {
	case d.queue <- r:
		d.m.QueueDepth.Add(1)
		d.mu.RUnlock()
	default:
		d.mu.RUnlock()
		d.m.Shed.Inc()
		return nil, Budget{}, ErrOverloaded
	}

	select {
	case res := <-r.done:
		return res.out, res.budget, res.err
	case <-ctx.Done():
		// A loop will still find the request (its context is dead) and
		// drop it before dispatch, delivering into the buffered channel.
		return nil, Budget{}, ctx.Err()
	}
}

// Close stops admission, serves every queued request through the
// backend, and waits for the dispatch loops to exit. Idempotent.
func (d *Dispatcher) Close() {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		close(d.stop)
	}
	d.mu.Unlock()
	d.wg.Wait()
}

// loop is one dispatcher: it takes a request whenever it is free. After
// stop it serves (not drops) whatever is still queued — the graceful
// half of shutdown — and exits.
func (d *Dispatcher) loop() {
	defer d.wg.Done()
	for {
		select {
		case r := <-d.queue:
			d.serve(r)
		case <-d.stop:
			for {
				select {
				case r := <-d.queue:
					d.serve(r)
				default:
					return
				}
			}
		}
	}
}

// serve runs one dequeued request through the backend and delivers its
// result; a request whose context died while it was queued is rejected
// without touching the engine.
func (d *Dispatcher) serve(r *request) {
	d.m.QueueDepth.Add(-1)
	if err := r.ctx.Err(); err != nil {
		d.m.DeadlineDrops.Inc()
		r.done <- result{err: err}
		return
	}
	picked := time.Now()
	d.m.Batches.Inc()
	d.m.EngineInflightMax.SetMax(float64(d.inEngine.Add(1)))
	out, err := d.be.Infer(r.in)
	d.inEngine.Add(-1)
	b := Budget{Queue: picked.Sub(r.enq), Engine: time.Since(picked)}
	d.m.QueueWait.Observe(b.Queue.Seconds())
	d.m.EngineTime.Observe(b.Engine.Seconds())
	if err != nil {
		d.m.EngineErrors.Inc()
	}
	r.done <- result{out: out, err: err, budget: b}
}
