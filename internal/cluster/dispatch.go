package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"edgebench/internal/exchange"
	"edgebench/internal/graph"
	"edgebench/internal/partition"
	"edgebench/internal/serving"
	"edgebench/internal/tensor"
)

// StageError is the structured failure the dispatcher surfaces when a
// stage process dies or reports an error: which stage, which device it
// was placed on, and what happened. It declares itself Unavailable so
// the HTTP front end maps it to 503 (retry elsewhere) rather than 500.
type StageError struct {
	Stage  int
	Device string
	Err    error
}

// Error renders the stage, placement, and cause.
func (e *StageError) Error() string {
	if e.Device != "" {
		return fmt.Sprintf("cluster: stage %d (%s): %v", e.Stage, e.Device, e.Err)
	}
	return fmt.Sprintf("cluster: stage %d: %v", e.Stage, e.Err)
}

// Unwrap exposes the cause.
func (e *StageError) Unwrap() error { return e.Err }

// Unavailable marks the pipeline as temporarily unservable.
func (e *StageError) Unavailable() bool { return true }

type closedError struct{}

func (closedError) Error() string     { return "cluster: pipeline closed" }
func (closedError) Unavailable() bool { return true }

// ErrPipelineClosed is returned by inference calls after Close. It is
// Unavailable() so the front server answers 503 during teardown.
var ErrPipelineClosed error = closedError{}

// Stage names one worker process slot: where to reach it and which
// simulated device the placement assigned it.
type Stage struct {
	Addr   string
	Device string
}

// Options tunes a pipeline connection.
type Options struct {
	// Credits is the per-hop flow-control window (default
	// DefaultCredits).
	Credits int
	// Replicas sizes each stage's engine pool, which is also how many
	// frames the stage computes at once. Zero leaves it to each worker,
	// which uses its own core count; 1 is one frame at a time per stage.
	Replicas int
	// DialTimeout bounds every control handshake (default 15s).
	DialTimeout time.Duration
	// Logf, when set, receives dispatcher progress lines.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Credits <= 0 {
		o.Credits = DefaultCredits
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 15 * time.Second
	}
	return o
}

// BuildStages turns a placement plan into executable stage subgraphs:
// plan boundaries -> cut points -> SplitN -> parameters copied in. g
// must be materialized and built from the plan's model.
func BuildStages(g *graph.Graph, plan *partition.PipelinePlan) ([]*graph.Graph, error) {
	if len(plan.Stages) == 0 {
		return nil, fmt.Errorf("cluster: empty plan")
	}
	if len(plan.Stages) == 1 {
		return []*graph.Graph{g}, nil
	}
	cuts, err := plan.Cuts(g)
	if err != nil {
		return nil, err
	}
	parts, err := partition.SplitN(g, cuts...)
	if err != nil {
		return nil, err
	}
	partition.CopyParams(g, parts...)
	return parts, nil
}

// ctrlConn is the dispatcher's end of one worker control connection.
type ctrlConn struct {
	stage   int
	device  string
	conn    net.Conn
	writeMu sync.Mutex
	reqMu   sync.Mutex // one outstanding stats poll at a time
	statsCh chan StageStats
}

func (c *ctrlConn) write(f *Frame) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return WriteFrame(c.conn, f)
}

// Pipeline is a connected multi-process inference chain. It implements
// server.Engine, so the standard HTTP front end (admission queue,
// dispatch, deadlines, /metrics) can sit in front of a distributed
// pipeline exactly as it does a local engine. Safe for concurrent use.
type Pipeline struct {
	parts  []*graph.Graph
	stages []Stage
	// stageConc[i] is how many frames stage i computes at once, as its
	// worker reported in Ready.
	stageConc []int
	opts      Options

	resultLn    net.Listener
	head        net.Conn
	headMu      sync.Mutex
	headCredits *credits
	result      net.Conn
	resultMu    sync.Mutex

	ctrls []*ctrlConn

	mu      sync.Mutex
	pending map[uint64]chan *tensor.Tensor
	failErr error
	seq     atomic.Uint64

	done       chan struct{}
	once       sync.Once
	closing    atomic.Bool
	resultDone chan struct{} // closed when resultLoop exits (EOS seen)
	wg         sync.WaitGroup

	statsMu   sync.Mutex
	lastStats []StageStats
}

// Connect wires a pipeline across already-running workers: one part per
// stage, configured in reverse order so every stage's downstream is
// ready before the stage dials it, fronted by a fresh result listener.
// On success every stage has loaded, verified, and warmed its subgraph.
func Connect(parts []*graph.Graph, stages []Stage, opts Options) (p *Pipeline, err error) {
	if len(parts) == 0 || len(parts) != len(stages) {
		return nil, fmt.Errorf("cluster: %d parts for %d stages", len(parts), len(stages))
	}
	opts = opts.withDefaults()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: result listener: %w", err)
	}
	p = &Pipeline{
		parts:       parts,
		stages:      stages,
		stageConc:   make([]int, len(stages)),
		opts:        opts,
		resultLn:    ln,
		headCredits: newCredits(),
		pending:     make(map[uint64]chan *tensor.Tensor),
		done:        make(chan struct{}),
		resultDone:  make(chan struct{}),
		lastStats:   make([]StageStats, len(stages)),
	}
	defer func() {
		if err != nil {
			_ = p.Close()
		}
	}()

	// Configure last stage first: its downstream (the result listener)
	// already exists, and each earlier stage dials a configured peer.
	for i := len(stages) - 1; i >= 0; i-- {
		if err := p.configureStage(i); err != nil {
			return nil, err
		}
	}

	// The last stage dialed us during its configuration; adopt the
	// connection and grant its initial credit window.
	if err := p.acceptResult(); err != nil {
		return nil, err
	}

	// Front of the chain: dial stage 0's data port.
	head, err := net.DialTimeout("tcp", stages[0].Addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial head %s: %w", stages[0].Addr, err)
	}
	p.head = head
	if err := WriteFrame(head, ControlFrame(KindHello, 0, []byte(RoleData))); err != nil {
		return nil, fmt.Errorf("cluster: head hello: %w", err)
	}
	p.wg.Add(1)
	go p.headLoop()
	p.logf("pipeline: %d stages connected, result listener %s", len(stages), ln.Addr())
	return p, nil
}

func (p *Pipeline) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}

// configureStage dials stage i's control port, ships its subgraph, and
// waits for Ready.
func (p *Pipeline) configureStage(i int) error {
	st := p.stages[i]
	conn, err := net.DialTimeout("tcp", st.Addr, p.opts.DialTimeout)
	if err != nil {
		return fmt.Errorf("cluster: dial stage %d control %s: %w", i, st.Addr, err)
	}
	c := &ctrlConn{stage: i, device: st.Device, conn: conn, statsCh: make(chan StageStats, 1)}
	p.ctrls = append(p.ctrls, c)
	if err := c.write(ControlFrame(KindHello, uint64(i), []byte(RoleControl))); err != nil {
		return fmt.Errorf("cluster: stage %d control hello: %w", i, err)
	}
	data, err := exchange.Export(p.parts[i], exchange.Options{IncludeWeights: true})
	if err != nil {
		return fmt.Errorf("cluster: export stage %d graph: %w", i, err)
	}
	downstream := p.resultLn.Addr().String()
	if i < len(p.stages)-1 {
		downstream = p.stages[i+1].Addr
	}
	payload, err := WorkerConfig{
		Stage:      i,
		Device:     st.Device,
		Graph:      data,
		Downstream: downstream,
		Credits:    p.opts.Credits,
		Replicas:   p.opts.Replicas,
	}.MarshalBinary()
	if err != nil {
		return fmt.Errorf("cluster: stage %d: %w", i, err)
	}
	if err := c.write(ControlFrame(KindConfig, uint64(i), payload)); err != nil {
		return fmt.Errorf("cluster: send stage %d config: %w", i, err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(p.opts.DialTimeout)); err != nil {
		return fmt.Errorf("cluster: stage %d deadline: %w", i, err)
	}
	f, err := ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("cluster: stage %d ready wait: %w", i, err)
	}
	switch f.Kind {
	case KindReady:
		p.stageConc[i] = int(f.Seq)
	case KindError:
		return &StageError{Stage: i, Device: st.Device, Err: fmt.Errorf("%s", f.Payload)}
	default:
		return fmt.Errorf("cluster: stage %d sent %s instead of ready", i, f.Kind)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return fmt.Errorf("cluster: stage %d deadline clear: %w", i, err)
	}
	p.wg.Add(1)
	go p.monitor(c)
	p.logf("pipeline: stage %d ready at %s (device %s, %d ops, %d frames at once)",
		i, st.Addr, st.Device, p.parts[i].NumOps(), p.stageConc[i])
	return nil
}

// acceptResult adopts the last stage's data connection into the result
// slot and grants the initial window.
func (p *Pipeline) acceptResult() error {
	if err := p.resultLn.(*net.TCPListener).SetDeadline(time.Now().Add(p.opts.DialTimeout)); err != nil {
		return err
	}
	conn, err := p.resultLn.Accept()
	if err != nil {
		return fmt.Errorf("cluster: waiting for last stage to connect: %w", err)
	}
	hello, err := ReadFrame(conn)
	if err != nil || hello.Kind != KindHello || string(hello.Payload) != RoleData {
		_ = conn.Close()
		return fmt.Errorf("cluster: result connection bad hello: %v", err)
	}
	if err := WriteFrame(conn, ControlFrame(KindCredit, uint64(p.opts.Credits), nil)); err != nil {
		_ = conn.Close()
		return fmt.Errorf("cluster: result credit grant: %w", err)
	}
	p.result = conn
	p.wg.Add(1)
	go p.resultLoop()
	return nil
}

// fail records the pipeline's terminal error exactly once and wakes
// every waiter.
func (p *Pipeline) fail(err error) {
	p.once.Do(func() {
		p.mu.Lock()
		p.failErr = err
		p.mu.Unlock()
		close(p.done)
	})
}

func (p *Pipeline) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failErr != nil {
		return p.failErr
	}
	return ErrPipelineClosed
}

// headLoop reads stage 0's credit grants (and error reports).
func (p *Pipeline) headLoop() {
	defer p.wg.Done()
	for {
		f, err := ReadFrame(p.head)
		if err != nil {
			if !p.closing.Load() {
				p.fail(&StageError{Stage: 0, Device: p.stages[0].Device,
					Err: fmt.Errorf("data connection lost: %w", err)})
			}
			return
		}
		switch f.Kind {
		case KindCredit:
			p.headCredits.release(f.Seq)
		case KindError:
			p.fail(&StageError{Stage: 0, Device: p.stages[0].Device, Err: fmt.Errorf("%s", f.Payload)})
			return
		default:
			p.fail(&StageError{Stage: 0, Err: fmt.Errorf("unexpected %s frame on head connection", f.Kind)})
			return
		}
	}
}

// resultLoop receives finished tensors from the last stage, completes
// the matching pending request, and returns the frame's credit.
func (p *Pipeline) resultLoop() {
	defer p.wg.Done()
	defer close(p.resultDone)
	last := len(p.stages) - 1
	for {
		f, err := ReadFrame(p.result)
		if err != nil {
			if !p.closing.Load() {
				p.fail(&StageError{Stage: last, Device: p.stages[last].Device,
					Err: fmt.Errorf("result connection lost: %w", err)})
			}
			return
		}
		switch f.Kind {
		case KindTensor:
			out, err := f.Tensor()
			if err != nil {
				p.fail(&StageError{Stage: last, Err: err})
				return
			}
			p.mu.Lock()
			ch := p.pending[f.Seq]
			delete(p.pending, f.Seq)
			p.mu.Unlock()
			if ch != nil {
				ch <- out
			}
			p.resultMu.Lock()
			err = WriteFrame(p.result, ControlFrame(KindCredit, 1, nil))
			p.resultMu.Unlock()
			if err != nil && !p.closing.Load() {
				p.fail(&StageError{Stage: last, Err: fmt.Errorf("result credit: %w", err)})
				return
			}
		case KindEOS:
			return
		default:
			p.fail(&StageError{Stage: last, Err: fmt.Errorf("unexpected %s frame on result connection", f.Kind)})
			return
		}
	}
}

// monitor watches one control connection for stats replies and
// asynchronous stage failures.
func (p *Pipeline) monitor(c *ctrlConn) {
	defer p.wg.Done()
	for {
		f, err := ReadFrame(c.conn)
		if err != nil {
			if !p.closing.Load() {
				p.fail(&StageError{Stage: c.stage, Device: c.device,
					Err: fmt.Errorf("control connection lost: %w", err)})
			}
			return
		}
		switch f.Kind {
		case KindStats:
			var st StageStats
			if json.Unmarshal(f.Payload, &st) == nil {
				select {
				case c.statsCh <- st:
				default:
				}
			}
		case KindError:
			p.fail(&StageError{Stage: c.stage, Device: c.device, Err: fmt.Errorf("%s", f.Payload)})
			return
		default:
			p.fail(&StageError{Stage: c.stage, Device: c.device,
				Err: fmt.Errorf("unexpected %s frame on control connection", f.Kind)})
			return
		}
	}
}

// Infer pushes one input through the whole chain and waits for its
// output frame. Concurrent Infers keep every stage busy — that overlap
// is the pipeline's throughput story.
func (p *Pipeline) Infer(in *tensor.Tensor) (*tensor.Tensor, error) {
	if in == nil {
		return nil, serving.ErrNilInput
	}
	if !in.Shape.Equal(p.InputShape()) {
		return nil, fmt.Errorf("cluster: input shape %v, pipeline wants %v", in.Shape, p.InputShape())
	}
	select {
	case <-p.done:
		return nil, p.err()
	default:
	}
	seq := p.seq.Add(1)
	ch := make(chan *tensor.Tensor, 1)
	p.mu.Lock()
	p.pending[seq] = ch
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.pending, seq)
		p.mu.Unlock()
	}()
	if !p.headCredits.acquire(p.done) {
		return nil, p.err()
	}
	p.headMu.Lock()
	err := WriteFrame(p.head, TensorFrame(seq, in))
	p.headMu.Unlock()
	if err != nil {
		p.fail(&StageError{Stage: 0, Err: fmt.Errorf("send input: %w", err)})
		return nil, p.err()
	}
	select {
	case out := <-ch:
		return out, nil
	case <-p.done:
		return nil, p.err()
	}
}

// Concurrency is the number of frames in flight that keeps every stage
// computing — what the front server sizes its dispatch loops from. Each
// stage reports how many frames it computes at once (its engine's
// replicas, by default its device's cores), so that is the sum over the
// stages, plus one to cover the hops and the dispatcher's turn-around
// (with exactly as many frames as compute loops, each loop idles for the
// hop after every frame). The hops' credit windows bound what the chain
// can hold at all.
func (p *Pipeline) Concurrency() int {
	frames := 1
	for _, n := range p.stageConc {
		frames += n
	}
	return min(frames, len(p.stages)*p.opts.Credits)
}

// InputShape is the first stage's input shape.
func (p *Pipeline) InputShape() tensor.Shape { return p.parts[0].Input.OutShape }

// ExecDType labels the dominant execution datatype across all stages.
func (p *Pipeline) ExecDType() string {
	counts := map[string]int{}
	for _, g := range p.parts {
		counts[serving.GraphExecDType(g)] += g.NumOps()
	}
	best, bestCount := "fp32", 0
	for d, c := range counts {
		if c > bestCount {
			best, bestCount = d, c
		}
	}
	return best
}

// WeightBytes sums the nominal parameter footprint (serving.Engine.WeightBytes)
// across all stages.
func (p *Pipeline) WeightBytes() int64 {
	var total int64
	for _, g := range p.parts {
		for _, n := range g.Nodes {
			total += n.WeightBytes()
		}
	}
	return total
}

// StageStats polls every worker's counters over its control connection.
// Per-stage failures leave that stage's previous snapshot in place, so
// scrape-time metrics degrade gracefully while a stage restarts.
func (p *Pipeline) StageStats() []StageStats {
	out := make([]StageStats, len(p.stages))
	p.statsMu.Lock()
	copy(out, p.lastStats)
	p.statsMu.Unlock()
	for _, c := range p.ctrls {
		st, err := p.pollStage(c)
		if err != nil {
			continue
		}
		out[c.stage] = st
	}
	p.statsMu.Lock()
	copy(p.lastStats, out)
	p.statsMu.Unlock()
	return out
}

func (p *Pipeline) pollStage(c *ctrlConn) (StageStats, error) {
	c.reqMu.Lock()
	defer c.reqMu.Unlock()
	select {
	case <-c.statsCh: // discard a stale reply from an abandoned poll
	default:
	}
	if err := c.write(ControlFrame(KindStatsReq, 0, nil)); err != nil {
		return StageStats{}, err
	}
	select {
	case st := <-c.statsCh:
		return st, nil
	case <-p.done:
		return StageStats{}, p.err()
	case <-time.After(p.opts.DialTimeout):
		return StageStats{}, fmt.Errorf("cluster: stage %d stats timeout", c.stage)
	}
}

// DispatchCounts aggregates kernel dispatch counters across stages (it
// polls the workers; served from the last snapshot for unreachable
// ones).
func (p *Pipeline) DispatchCounts() (int8Kernels, fp32Kernels, fusedKernels int64) {
	for _, st := range p.StageStats() {
		int8Kernels += st.Int8Kernels
		fp32Kernels += st.FP32Kernels
		fusedKernels += st.FusedKernels
	}
	return int8Kernels, fp32Kernels, fusedKernels
}

// Err reports the pipeline's terminal error, nil while healthy.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failErr
}

// Close shuts the pipeline down: workers are asked to drain (each
// forwards its queue, passes EOS on, and exits once its downstream hangs
// up — so closing the result connection here unwinds the chain from the
// back), pending requests are failed with ErrPipelineClosed, and all
// connections close. Idempotent.
func (p *Pipeline) Close() error {
	p.closing.Store(true)
	for _, c := range p.ctrls {
		_ = c.write(ControlFrame(KindShutdown, 0, nil))
	}
	p.headMu.Lock()
	if p.head != nil {
		_ = WriteFrame(p.head, ControlFrame(KindEOS, 0, nil))
	}
	p.headMu.Unlock()
	p.fail(ErrPipelineClosed)
	// Give the drain a moment to propagate: every worker forwards its
	// queue and an EOS marker; the result loop exits when the EOS
	// reaches the end of the chain. Only then tear the sockets down, so
	// cleanly draining workers never see a mid-drain connection reset.
	if p.result != nil {
		select {
		case <-p.resultDone:
		case <-time.After(p.opts.DialTimeout):
			p.logf("pipeline: drain timed out, forcing teardown")
		}
	}
	if p.resultLn != nil {
		_ = p.resultLn.Close()
	}
	if p.head != nil {
		_ = p.head.Close()
	}
	if p.result != nil {
		_ = p.result.Close()
	}
	for _, c := range p.ctrls {
		_ = c.conn.Close()
	}
	p.wg.Wait()
	return nil
}
