package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"edgebench/internal/cluster"
	"edgebench/internal/graph"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/server"
	"edgebench/internal/serving"
	"edgebench/internal/verify"
)

// perLayer lists the traced run's metrics by layer. A workload prints 0
// for a layer it does not run (server.* off serve-*, cluster.* off
// pipe-*, q_* probes on FP32 graphs and FP32 probes on int8 ones).
var perLayer = []metricDef{
	{"model.build_ms", "ms"},
	{"model.params_mb", "MB"},
	{"opt.optimize_ms", "ms"},
	{"opt.quantize_ms", "ms"},
	{"opt.rewrites", "count"},
	{"verify.check_ms", "ms"},
	{"serving.new_engine_ms", "ms"},
	{"serving.warmup_ms", "ms"},
	{"serving.resident_mb", "MB"},
	{"serving.infer_ms_p50", "ms"},
	{"serving.infer_batch2_ms_p50", "ms"},
	{"graph.nodes", "count"},
	{"graph.allocs_per_op", "count"},
	{"graph.alloc_kb_per_op", "KB"},
	{"graph.gc_pause_us_per_op", "us"},
	{"graph.arena_idle_bufs", "count"},
	{"graph.arena_misses_per_op", "count"},
	{"graph.dispatch_fp32_per_op", "count"},
	{"graph.dispatch_int8_per_op", "count"},
	{"graph.dispatch_fused_per_op", "count"},
	{"tensor.macs_per_op", "count"},
	{"tensor.achieved_gmacs", "GMAC/s"},
	{"tensor.cores_busy", "ratio"},
	{"tensor.pw_conv_gmacs", "GMAC/s"},
	{"tensor.dw_conv_gmacs", "GMAC/s"},
	{"tensor.kxk_conv_gmacs", "GMAC/s"},
	{"tensor.dense_gmacs", "GMAC/s"},
	{"tensor.q_pw_conv_gmacs", "GMAC/s"},
	{"tensor.q_kxk_conv_gmacs", "GMAC/s"},
	{"tensor.q_dense_gmacs", "GMAC/s"},
	{"server.listen_ms", "ms"},
	{"server.rtt_ms_p50", "ms"},
	{"server.rtt_ms_p99", "ms"},
	{"server.rtt_data_ms_p50", "ms"},
	{"server.rtt_seed_ms_p50", "ms"},
	{"server.total_ms_p50", "ms"},
	{"server.http_overhead_ms_p50", "ms"},
	{"server.queue_wait_ms_p50", "ms"},
	{"server.batch_size_mean", "count"},
	{"server.batches", "count"},
	{"server.shed", "count"},
	{"server.deadline_drops", "count"},
	{"cluster.build_stages_ms", "ms"},
	{"cluster.connect_ms", "ms"},
	{"cluster.infer_ms_p50", "ms"},
	{"cluster.infer_ms_p99", "ms"},
	{"cluster.stage0_compute_ms_p50", "ms"},
	{"cluster.stage1_compute_ms_p50", "ms"},
	{"cluster.stage2_compute_ms_p50", "ms"},
	{"cluster.stage0_macs", "count"},
	{"cluster.stage1_macs", "count"},
	{"cluster.stage2_macs", "count"},
	{"cluster.hop_overhead_ms", "ms"},
	{"cluster.wire_bytes_per_op", "B"},
	{"cluster.credit_stalls", "count"},
	{"cluster.frame_encode_us", "us"},
	{"cluster.frame_decode_us", "us"},
	{"trace.overhead_pct", "%"},
}

const (
	// traceSetupReps timed set-ups precede the traced one in a traced run.
	traceSetupReps = 2
	// probeBudget is the time one kernel or engine probe aims to measure for.
	probeBudget = 300 * time.Millisecond
)

// counters are the cumulative counts a loop is bracketed with.
type counters struct {
	mem                runtime.MemStats
	int8, fp32, fused  int64
	arenaMisses        int
	wireBytes, stalls  uint64
	batches, shed, ddl uint64
}

func (t *target) counters() counters {
	var c counters
	runtime.ReadMemStats(&c.mem)
	switch {
	case t.pipe != nil:
		for i, st := range t.pipe.StageStats() {
			c.int8 += st.Int8Kernels
			c.fp32 += st.FP32Kernels
			c.fused += st.FusedKernels
			c.stalls += st.CreditStalls
			// Every wire once: what each stage sends, plus what the
			// dispatcher sent to stage 0.
			c.wireBytes += st.BytesOut
			if i == 0 {
				c.wireBytes += st.BytesIn
			}
		}
	case t.eng != nil:
		c.int8, c.fp32, c.fused = t.eng.DispatchCounts()
		c.arenaMisses = t.eng.PoolStats().Misses
	}
	if t.srv != nil {
		m := t.srv.Metrics()
		c.batches, c.shed, c.ddl = m.Batches.Value(), m.Shed.Value(), m.DeadlineDrops.Value()
	}
	return c
}

// runTraced is the separate traced run: set-up and a quarter-length loop
// with spans recorded around every call into a layer, an equal untraced
// loop beside it for counters and the tracing overhead, then the probes.
func runTraced(w *workload, cfg config) (result, error) {
	ops, _ := cfg.sizes(w)
	if cfg.ops == 0 {
		ops = max(ops/4/numInputs, 1) * numInputs
	}
	reps := traceSetupReps
	if cfg.setupReps > 0 {
		reps = cfg.setupReps
	}
	tr := newTracer(16 + 3*ops)
	if _, _, err := timeSetups(w, cfg.procs, reps, tr); err != nil {
		return result{}, err
	}
	setupSpans := len(tr.spans)

	p, err := prepare(w, cfg)
	if err != nil {
		return result{}, err
	}
	defer p.t.close()
	t := p.t
	v := map[string]float64{}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	v["serving.resident_mb"] = float64(ms.HeapAlloc) / 1e6

	// Untraced loop: counters, CPU and the latency tracing is compared to.
	do, err := t.opFunc(p.in, nil)
	if err != nil {
		return result{}, err
	}
	before := t.counters()
	base, warm := p.loop(cfg, ops, do, nil)
	after := t.counters()
	attempted, failed := base.attempted+warm.attempted, base.failed+warm.failed
	// Counter deltas cover the warm-up ops too.
	n := float64(max(base.attempted+warm.attempted, 1))
	v["graph.allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / n
	v["graph.alloc_kb_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1e3 / n
	v["graph.gc_pause_us_per_op"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e3 / n
	v["graph.arena_misses_per_op"] = float64(after.arenaMisses-before.arenaMisses) / n
	v["graph.dispatch_fp32_per_op"] = float64(after.fp32-before.fp32) / n
	v["graph.dispatch_int8_per_op"] = float64(after.int8-before.int8) / n
	v["graph.dispatch_fused_per_op"] = float64(after.fused-before.fused) / n
	if t.eng != nil {
		v["graph.arena_idle_bufs"] = float64(t.eng.PoolStats().Idle)
	}
	basic := map[string]float64{}
	loopMetrics(base, false, basic)
	v["tensor.cores_busy"] = basic["cpu_ms_per_op"] / basic["lat_p50_ms"]

	// Traced loop.
	records := make([]serveRecord, max(ops, warmOps)) // the warm-up writes its records too
	do, err = t.opFunc(p.in, records)
	if err != nil {
		return result{}, err
	}
	mid := t.counters()
	traced, warm := p.loop(cfg, ops, do, tr)
	end := t.counters()
	attempted += traced.attempted + warm.attempted
	failed += traced.failed + warm.failed
	// The two loops ran at different times, so their normalised p50s are
	// the ones compared.
	v["trace.overhead_pct"] = (percentile(traced.normLatMs, 50)/percentile(base.normLatMs, 50) - 1) * 100

	spans := tr.spans
	setupMs := func(name string) float64 { return median(durationsMs(spans[:setupSpans], name)) }
	v["model.build_ms"] = setupMs("model.build")
	v["opt.optimize_ms"] = setupMs("opt.optimize")
	v["opt.quantize_ms"] = setupMs("opt.quantize")
	v["opt.rewrites"] = float64(t.rewrites)
	v["serving.new_engine_ms"] = setupMs("serving.new_engine")
	v["serving.warmup_ms"] = setupMs("serving.warmup")
	v["server.listen_ms"] = setupMs("server.listen")
	v["cluster.build_stages_ms"] = setupMs("cluster.build_stages")
	v["cluster.connect_ms"] = setupMs("cluster.connect")

	v["graph.nodes"] = float64(len(t.g.Nodes))
	v["tensor.macs_per_op"] = graphMACs(t.g)
	sp := tr.begin("verify.check", noParent, noReq)
	diags := verify.Check(t.g)
	tr.end(sp)
	if err := verify.Err(diags); err != nil {
		return result{}, fmt.Errorf("%s: verify.Check: %w", w.name, err)
	}
	v["verify.check_ms"] = median(durationsMs(tr.spans, "verify.check"))

	switch w.kind {
	case serve:
		serverMetrics(tr, spans, records, t, mid, end, float64(traced.attempted+warm.attempted), v)
	case pipe:
		if err := clusterMetrics(p, tr.spans, before, after, n, v); err != nil {
			return result{}, err
		}
	}
	if err := engineMetrics(p, v); err != nil {
		return result{}, err
	}
	if err := kernelProbes(t.g, v); err != nil {
		return result{}, err
	}

	path, err := tr.write(cfg.outDir, w.name)
	if err != nil {
		return result{}, err
	}
	fmt.Printf("traced workload %s seed=%d ops=%d (untraced) + %d (traced) reference_digest=%016x\n",
		w.name, cfg.seed, base.attempted, traced.attempted, p.digest)
	fmt.Printf("  attempted=%d failed=%d; %d spans written to %s\n", attempted, failed, len(tr.spans), path)
	printMetrics(perLayer, v)
	return newResult(perLayer, v, attempted, failed), nil
}

// graphMACs sums the analytic multiply-accumulate count of g's nodes.
func graphMACs(g *graph.Graph) float64 {
	macs := 0.0
	for _, nd := range g.Nodes {
		macs += graph.NodeCost(nd).MACs
	}
	return macs
}

// serverMetrics reads the traced loop's round-trip spans, adds the
// synthetic server.total child each response's TotalMs describes, and
// reads the server's own counters.
func serverMetrics(tr *tracer, spans []span, records []serveRecord, t *target, before, after counters, n float64, v map[string]float64) {
	var rtt, rttData, rttSeed, total, overhead []float64
	for i, s := range spans {
		if s.Name != "server.roundtrip" {
			continue
		}
		d := float64(s.EndNs-s.StartNs) / 1e6
		tot := records[s.Req].totalMs
		rtt = append(rtt, d)
		total = append(total, tot)
		overhead = append(overhead, d-tot)
		if s.Req%2 == 0 {
			rttData = append(rttData, d)
		} else {
			rttSeed = append(rttSeed, d)
		}
		// The server's interval lies somewhere inside the round trip;
		// centre it, since the client cannot see where.
		lead := (s.EndNs - s.StartNs - int64(tot*1e6)) / 2
		tr.add(span{Name: "server.total", StartNs: s.StartNs + lead, EndNs: s.StartNs + lead + int64(tot*1e6), Parent: i, Req: s.Req})
	}
	v["server.rtt_ms_p50"] = percentile(rtt, 50)
	v["server.rtt_ms_p99"] = percentile(rtt, 99)
	v["server.rtt_data_ms_p50"] = percentile(rttData, 50)
	v["server.rtt_seed_ms_p50"] = percentile(rttSeed, 50)
	v["server.total_ms_p50"] = percentile(total, 50)
	v["server.http_overhead_ms_p50"] = percentile(overhead, 50)
	v["server.queue_wait_ms_p50"] = t.srv.Metrics().QueueWait.Quantile(0.5) * 1e3
	batches := float64(after.batches - before.batches)
	v["server.batches"] = batches
	v["server.batch_size_mean"] = n / max(batches, 1)
	v["server.shed"] = float64(after.shed - before.shed)
	v["server.deadline_drops"] = float64(after.ddl - before.ddl)
}

// clusterMetrics reads the stage workers' counters and measures the
// pipeline with one frame in flight.
func clusterMetrics(p *prepared, spans []span, before, after counters, n float64, v map[string]float64) error {
	t := p.t
	infer := durationsMs(spans, "cluster.infer")
	v["cluster.infer_ms_p50"] = percentile(infer, 50)
	v["cluster.infer_ms_p99"] = percentile(infer, 99)
	v["cluster.wire_bytes_per_op"] = float64(after.wireBytes-before.wireBytes) / n
	v["cluster.credit_stalls"] = float64(after.stalls - before.stalls)

	lat := make([]float64, 0, 64)
	for i := 0; i < cap(lat); i++ {
		t0 := time.Now()
		if _, err := t.pipe.Infer(p.in.tensors[i%numInputs]); err != nil {
			return fmt.Errorf("%s: one-in-flight infer: %w", t.w.name, err)
		}
		lat = append(lat, float64(time.Since(t0))/1e6)
	}
	compute := 0.0
	var widest *graph.Graph
	for i, st := range t.pipe.StageStats() {
		v[fmt.Sprintf("cluster.stage%d_compute_ms_p50", i)] = st.P50Ms
		compute += st.P50Ms
		v[fmt.Sprintf("cluster.stage%d_macs", i)] = graphMACs(t.parts[i])
		if i < len(t.parts)-1 && (widest == nil || t.parts[i].Output.OutShape.NumElems() > widest.Output.OutShape.NumElems()) {
			widest = t.parts[i]
		}
	}
	v["cluster.hop_overhead_ms"] = percentile(lat, 50) - compute

	// Frame costs on the largest activation that crosses a hop.
	frame := cluster.TensorFrame(1, server.SeededInput(widest.Output.OutShape, 1))
	var enc, dec []float64
	var buf []byte
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		var err error
		if buf, err = cluster.AppendFrame(buf[:0], frame); err != nil {
			return fmt.Errorf("encode frame: %w", err)
		}
		t1 := time.Now()
		if _, err := cluster.ReadFrame(bytes.NewReader(buf)); err != nil {
			return fmt.Errorf("decode frame: %w", err)
		}
		enc = append(enc, float64(t1.Sub(t0))/1e3)
		dec = append(dec, float64(time.Since(t1))/1e3)
	}
	v["cluster.frame_encode_us"] = percentile(enc, 50)
	v["cluster.frame_decode_us"] = percentile(dec, 50)
	return nil
}

// engineMetrics times Infer and InferBatch(2) with one caller on the
// workload's engine; pipe-* has no engine of its own here, so one is built
// over the whole graph.
func engineMetrics(p *prepared, v map[string]float64) error {
	eng := p.t.eng
	if eng == nil {
		var err error
		if eng, err = serving.NewEngine(p.t.g, 1); err != nil {
			return err
		}
		defer eng.Close()
		if err := eng.Warmup(); err != nil {
			return err
		}
	}
	v["model.params_mb"] = float64(eng.WeightBytes()) / 1e6
	one, err := timeCalls(func(i int) error {
		_, err := eng.Infer(p.in.tensors[i%numInputs])
		return err
	})
	if err != nil {
		return err
	}
	two, err := timeCalls(func(i int) error {
		_, err := eng.InferBatch(p.in.tensors[i%(numInputs-1) : i%(numInputs-1)+2])
		return err
	})
	if err != nil {
		return err
	}
	v["serving.infer_ms_p50"] = one
	v["serving.infer_batch2_ms_p50"] = two
	v["tensor.achieved_gmacs"] = v["tensor.macs_per_op"] / (one / 1e3) / 1e9
	return nil
}

// timeCalls calls fn twice untimed, then at least 5 and at most 200
// times until probeBudget is spent, and returns the median call in ms.
func timeCalls(fn func(i int) error) (float64, error) {
	var ms []float64
	start := time.Now()
	for i := 0; i < 202 && (i < 7 || time.Since(start) < probeBudget); i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		if i >= 2 {
			ms = append(ms, float64(time.Since(t0))/1e6)
		}
	}
	return median(ms), nil
}

// kernelProbes measures, for each (op family, dtype) present in g, a
// single-op graph at the shape of the family's highest-MAC node, run
// through an engine: whichever kernel the engine really picks for that
// shape is what gets timed, with no kernel named here.
func kernelProbes(g *graph.Graph, v map[string]float64) error {
	best := map[string]*graph.Node{}
	for _, nd := range g.Nodes {
		fam := probeFamily(nd)
		if fam == "" {
			continue
		}
		if cur := best[fam]; cur == nil || graph.NodeCost(nd).MACs > graph.NodeCost(cur).MACs {
			best[fam] = nd
		}
	}
	for fam, nd := range best {
		b := nn.NewBuilder("probe-"+fam, nn.Options{Materialize: true, Seed: weightSeed}, nd.Inputs[0].OutShape...)
		stride, bias := max(nd.Attrs.Stride, 1), nd.BiasLen > 0
		switch nd.Kind {
		case graph.OpConv2D:
			b.Conv2D("probe", nd.WShape[0], nd.WShape[2], stride, nd.Attrs.Pad, bias)
		case graph.OpDepthwiseConv2D:
			b.DepthwiseConv2D("probe", nd.WShape[1], stride, nd.Attrs.Pad, bias)
		case graph.OpDense:
			b.Dense("probe", nd.WShape[0], bias)
		}
		pg := b.Build()
		if nd.QWeights != nil {
			opt.QuantizeINT8(pg)
		}
		eng, err := serving.NewEngine(pg, 1)
		if err != nil {
			return fmt.Errorf("probe %s: %w", fam, err)
		}
		in := server.SeededInput(eng.InputShape(), 1)
		ms, err := timeCalls(func(int) error {
			_, err := eng.Infer(in)
			return err
		})
		_ = eng.Close() // always nil
		if err != nil {
			return fmt.Errorf("probe %s: %w", fam, err)
		}
		v["tensor."+fam+"_gmacs"] = graphMACs(pg) / (ms / 1e3) / 1e9
	}
	return nil
}

// probeFamily names the probe a compute node belongs to, or "" for nodes
// no probe covers (grouped and rectangular convolutions, non-compute ops).
func probeFamily(nd *graph.Node) string {
	fam := ""
	switch {
	case nd.Kind == graph.OpDense:
		fam = "dense"
	case nd.Kind == graph.OpDepthwiseConv2D:
		fam = "dw_conv"
	case nd.Kind == graph.OpConv2D && nd.Attrs.GroupCount() == 1 && !nd.Attrs.Asym && nd.WShape[2] == nd.WShape[3]:
		fam = "kxk_conv"
		if nd.WShape[2] == 1 {
			fam = "pw_conv"
		}
	default:
		return ""
	}
	if nd.QWeights != nil { // only int8-executable nodes carry them; depthwise never does
		fam = "q_" + fam
	}
	return fam
}
