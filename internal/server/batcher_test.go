package server

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/serving"
	"edgebench/internal/tensor"
)

// servingCNN builds a small materialized graph with branching, matching
// the engine tests' workload.
func servingCNN(t testing.TB) *graph.Graph {
	t.Helper()
	b := nn.NewBuilder("server-cnn", nn.Options{Materialize: true, Seed: 11}, 3, 16, 16)
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

func testInput(i int) *tensor.Tensor {
	in := tensor.New(3, 16, 16)
	for j := range in.Data {
		in.Data[j] = float32(math.Sin(float64(i*257 + j)))
	}
	return in
}

// fakeBackend echoes its input after a configurable delay. It records
// every tensor it sees and how many calls were inside it at once, so
// tests can assert exactly which requests reached the engine and how
// concurrently. It fills in the rest of Engine with constants, so a
// whole Server can stand on it.
type fakeBackend struct {
	conc  int           // declared concurrency; 0 means 1
	delay time.Duration // every call sleeps this long
	block chan struct{} // when non-nil, every call waits for its close

	inside atomic.Int32 // calls inside Infer right now
	peak   atomic.Int32 // most calls inside Infer at once
	mu     sync.Mutex
	seen   []*tensor.Tensor
}

func (f *fakeBackend) Concurrency() int { return max(f.conc, 1) }

func (f *fakeBackend) Infer(in *tensor.Tensor) (*tensor.Tensor, error) {
	n := f.inside.Add(1)
	defer f.inside.Add(-1)
	for p := f.peak.Load(); n > p && !f.peak.CompareAndSwap(p, n); p = f.peak.Load() {
	}
	if f.block != nil {
		<-f.block
	}
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	f.mu.Lock()
	f.seen = append(f.seen, in)
	f.mu.Unlock()
	return in, nil
}

func (f *fakeBackend) InputShape() tensor.Shape                  { return tensor.Shape{3, 16, 16} }
func (f *fakeBackend) ExecDType() string                         { return "fp32" }
func (f *fakeBackend) WeightBytes() int64                        { return 0 }
func (f *fakeBackend) DispatchCounts() (int8, fp32, fused int64) { return 0, 0, 0 }
func (f *fakeBackend) Close() error                              { return nil }

func (f *fakeBackend) sawTensor(t *tensor.Tensor) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, in := range f.seen {
		if in == t {
			return true
		}
	}
	return false
}

func (f *fakeBackend) dispatched() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.seen)
}

// meetingEngine is a real engine whose calls wait, for at most two
// seconds, until two of them have been inside at once. A tiny model's
// first inference can otherwise finish before the dispatcher's second
// loop picks up work, and whether both replicas were ever busy together
// would be the scheduler's choice rather than the dispatcher's.
type meetingEngine struct {
	*serving.Engine
	inside atomic.Int32
	met    chan struct{}
	once   sync.Once
}

func (e *meetingEngine) Infer(in *tensor.Tensor) (*tensor.Tensor, error) {
	if e.inside.Add(1) >= 2 {
		e.once.Do(func() { close(e.met) })
	}
	defer e.inside.Add(-1)
	select {
	case <-e.met:
	case <-time.After(2 * time.Second):
	}
	return e.Engine.Infer(in)
}

// TestBatcherMatchesSequentialInfer is the dispatch correctness gate
// (run under -race by make race): many concurrent requests through the
// dispatcher + real engine must produce outputs element-identical to a
// dedicated sequential executor on the same inputs, one dispatch each,
// on both replicas at once and never on more.
func TestBatcherMatchesSequentialInfer(t *testing.T) {
	g := servingCNN(t)
	eng, err := serving.NewEngine(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m := NewMetrics()
	d := NewDispatcher(&meetingEngine{Engine: eng, met: make(chan struct{})}, Config{}, m)
	defer d.Close()

	const n = 24
	ins := make([]*tensor.Tensor, n)
	outs := make([]*tensor.Tensor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ins[i] = testInput(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], _, errs[i] = d.Do(context.Background(), ins[i])
		}(i)
	}
	wg.Wait()

	ref := &graph.Executor{}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want, err := ref.Run(g, ins[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Data {
			if outs[i].Data[j] != want.Data[j] {
				t.Fatalf("request %d: out[%d] = %v, want %v", i, j, outs[i].Data[j], want.Data[j])
			}
		}
	}
	if got := m.Batches.Value(); got != n {
		t.Errorf("%d dispatches for %d requests, want one each", got, n)
	}
	// 24 simultaneous arrivals against two replicas must occupy both.
	if got := m.EngineInflightMax.Value(); got != 2 {
		t.Errorf("engine in-flight high-water mark %v, want 2 (one per replica)", got)
	}
}

// TestDispatchIsWorkConserving: while one request is inside a backend
// that runs two at once, a second must be handed to it at once — not
// ride the first's batch, and not queue behind it.
func TestDispatchIsWorkConserving(t *testing.T) {
	release := make(chan struct{})
	be := &fakeBackend{conc: 2, block: release}
	d := NewDispatcher(be, Config{}, nil)
	defer d.Close()

	var wg sync.WaitGroup
	do := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := d.Do(context.Background(), testInput(i)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}()
	}
	do(0)
	waitUntil(t, func() bool { return be.inside.Load() == 1 })
	do(1)
	deadline := time.Now().Add(100 * time.Millisecond)
	for be.inside.Load() < 2 {
		if time.Now().After(deadline) {
			close(release)
			wg.Wait()
			t.Fatal("second request not inside the backend 100ms after arriving: it waited on the first")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()
}

// TestDispatchIdleHasNoWindow: a lone request on an idle dispatcher goes
// straight to the backend. The median of five lone requests is asserted
// rather than each one, so that one descheduling of the test process
// cannot fail it; a batch window shows in every sample.
func TestDispatchIdleHasNoWindow(t *testing.T) {
	m := NewMetrics()
	d := NewDispatcher(&fakeBackend{conc: 2}, Config{}, m)
	defer d.Close()
	for i := 0; i < 5; i++ {
		if _, _, err := d.Do(context.Background(), testInput(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.QueueWait.Quantile(0.5); got >= 1e-3 {
		t.Errorf("idle queue wait p50 %.3f ms (max %.3f ms), want < 1 ms", got*1e3, m.QueueWait.Quantile(1)*1e3)
	}
}

// TestDispatchNeverExceedsConcurrency: however many requests wait, the
// backend holds exactly as many as it declared.
func TestDispatchNeverExceedsConcurrency(t *testing.T) {
	be := &fakeBackend{conc: 2, delay: time.Millisecond}
	m := NewMetrics()
	d := NewDispatcher(be, Config{}, m)
	defer d.Close()

	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := d.Do(context.Background(), testInput(i)); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if got := be.peak.Load(); got != 2 {
		t.Errorf("peak calls inside the backend %d, want 2", got)
	}
	if got := m.EngineInflightMax.Value(); got != 2 {
		t.Errorf("edgeserve_engine_inflight_max %v, want 2", got)
	}
	if got := be.dispatched(); got != 32 {
		t.Errorf("backend served %d requests, want 32", got)
	}
}

// TestBatcherDeadlineExpiry pins context propagation: a request whose
// deadline fires while queued is answered with the context error and is
// never dispatched to the backend.
func TestBatcherDeadlineExpiry(t *testing.T) {
	release := make(chan struct{})
	be := &fakeBackend{block: release}
	m := NewMetrics()
	d := NewDispatcher(be, Config{QueueCap: 8}, m)
	defer d.Close()

	// Occupy the only dispatcher: this request blocks inside the backend.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, _, err := d.Do(context.Background(), testInput(0)); err != nil {
			t.Errorf("blocker request failed: %v", err)
		}
	}()
	waitUntil(t, func() bool { return be.inside.Load() == 1 })

	// This one queues behind it with a deadline shorter than the block.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	victim := testInput(1)
	_, _, err := d.Do(ctx, victim)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired request returned %v, want DeadlineExceeded", err)
	}

	close(release)
	wg.Wait()
	d.Close()
	if be.sawTensor(victim) {
		t.Fatal("expired request reached the backend")
	}
	if got := m.DeadlineDrops.Value(); got != 1 {
		t.Errorf("deadline drops = %d, want 1", got)
	}
}

// TestBatcherOverloadShedding pins admission control: once the queue is
// full, further requests fail fast with ErrOverloaded and none of the
// shed inputs ever reach the backend.
func TestBatcherOverloadShedding(t *testing.T) {
	release := make(chan struct{})
	be := &fakeBackend{block: release}
	m := NewMetrics()
	const qcap = 4
	d := NewDispatcher(be, Config{QueueCap: qcap}, m)
	defer d.Close()

	// One request occupies the only dispatcher inside the backend...
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.Do(context.Background(), testInput(0))
	}()
	waitUntil(t, func() bool { return be.inside.Load() == 1 })

	// ...then cap more fill the queue.
	accepted := make([]*tensor.Tensor, qcap)
	for i := range accepted {
		accepted[i] = testInput(100 + i)
		wg.Add(1)
		go func(in *tensor.Tensor) {
			defer wg.Done()
			if _, _, err := d.Do(context.Background(), in); err != nil {
				t.Errorf("admitted request failed: %v", err)
			}
		}(accepted[i])
	}
	waitUntil(t, func() bool { return len(d.queue) == qcap })

	// Every further arrival must shed without queueing.
	shed := make([]*tensor.Tensor, 6)
	for i := range shed {
		shed[i] = testInput(200 + i)
		if _, _, err := d.Do(context.Background(), shed[i]); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("overload request %d returned %v, want ErrOverloaded", i, err)
		}
	}
	if got := m.Shed.Value(); got != uint64(len(shed)) {
		t.Errorf("shed counter = %d, want %d", got, len(shed))
	}

	close(release)
	wg.Wait()
	d.Close() // drain everything admitted
	for _, in := range shed {
		if be.sawTensor(in) {
			t.Fatal("shed request reached the backend")
		}
	}
	if got := be.dispatched(); got != 1+qcap {
		t.Errorf("backend saw %d requests, want %d (blocker + admitted)", got, 1+qcap)
	}
}

// TestBatcherCloseDrains pins graceful shutdown through Server.Close:
// requests still queued when Close begins are served, not dropped;
// requests after Close fail with ErrClosed; and every goroutine New
// started is gone when Close returns.
func TestBatcherCloseDrains(t *testing.T) {
	baseline := runtime.NumGoroutine()
	release := make(chan struct{})
	be := &fakeBackend{block: release, delay: 2 * time.Millisecond}
	srv := New(be, Config{QueueCap: 16})

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = srv.disp.Do(context.Background(), testInput(i))
		}(i)
	}
	// One request is parked inside the backend, the rest are queued.
	waitUntil(t, func() bool { return be.inside.Load() == 1 && len(srv.disp.queue) == n-1 })
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	waitUntil(t, func() bool {
		srv.disp.mu.RLock()
		defer srv.disp.mu.RUnlock()
		return srv.disp.closed
	})
	if _, _, err := srv.disp.Do(context.Background(), testInput(9)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close request returned %v, want ErrClosed", err)
	}
	close(release)
	wg.Wait()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("pre-close request %d: %v", i, err)
		}
	}
	if got := be.dispatched(); got != n {
		t.Errorf("backend served %d requests, want all %d admitted before Close", got, n)
	}
	// Close waited for the loops' WaitGroup; give their stacks a moment to
	// unwind before counting.
	waitUntil(t, func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestWriteTimeoutDerivation: the write timeout covers the body read, a
// full queue's engine passes ahead — the backend runs concurrency of
// them at a time — and the request's own.
func TestWriteTimeoutDerivation(t *testing.T) {
	for _, tc := range []struct {
		queueCap, concurrency int
		want                  time.Duration
	}{
		{64, 1, readTimeout + 65*enginePassCeiling},
		{64, 2, readTimeout + 33*enginePassCeiling},
		{5, 2, readTimeout + 4*enginePassCeiling}, // a part-filled last round is a round
	} {
		if got := (Config{QueueCap: tc.queueCap}).writeTimeout(tc.concurrency); got != tc.want {
			t.Errorf("QueueCap %d, concurrency %d: write timeout %v, want %v", tc.queueCap, tc.concurrency, got, tc.want)
		}
	}
	// The server reads the concurrency from its backend.
	srv := New(&fakeBackend{conc: 2}, Config{})
	defer srv.Close()
	if got, want := srv.HTTPServer().WriteTimeout, readTimeout+33*enginePassCeiling; got != want {
		t.Errorf("HTTPServer write timeout %v, want %v", got, want)
	}
}

// waitUntil polls cond for up to 2s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
