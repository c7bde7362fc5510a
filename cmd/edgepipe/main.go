// Command edgepipe serves a model as a distributed pipeline: the model
// splits into K consecutive stages (placement chosen by the
// bottleneck-minimizing pipeline partitioner), each stage runs in its
// own worker process behind a framed TCP protocol with credit-based
// backpressure, and a dispatcher fronts the chain with the standard
// HTTP serving surface — the executable form of the collaborative-edge
// line the paper's §VIII points at.
//
// Two subcommands:
//
//	edgepipe worker [-listen 127.0.0.1:0] [-v]
//	    Run one stage worker. It prints its address, then waits for a
//	    dispatcher to connect, ship a stage subgraph, and stream
//	    tensors. The process exits 0 after a graceful drain.
//
//	edgepipe run -model CifarNet -devices RPi3,JetsonNano,JetsonTX2 [flags]
//	    Plan the split, spawn one local worker per stage (or attach to
//	    -workers addresses), verify bit-exactness against an in-process
//	    single-engine run, and serve HTTP on -addr with per-stage
//	    Prometheus metrics on /metrics.
//
// With -attack the dispatcher drives its own load generator against
// the front server and prints pipeline throughput beside a measured
// single-replica baseline; -smoke turns the run into an exit code: zero
// failed requests, a healthy pipeline, and — where the heaviest stage has
// more than one compute loop — two frames inside it at once.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edgebench/internal/cluster"
	"edgebench/internal/graph"
	"edgebench/internal/metrics"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/partition"
	"edgebench/internal/server"
	"edgebench/internal/serving"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "worker":
		os.Exit(runWorker(os.Args[2:]))
	case "run":
		os.Exit(runPipeline(os.Args[2:]))
	default:
		fmt.Fprintf(os.Stderr, "edgepipe: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  edgepipe worker [-listen addr] [-v]
  edgepipe run -model NAME -devices D1,D2,... [-framework FW] [-link ethernet|wifi]
               [-opt O0|O1|O2] [-seed N] [-addr addr] [-workers a1,a2,...]
               [-replicas N] [-credits N] [-check N] [-attack rate,dur[,burst]] [-smoke] [-v]
`)
}

// workerReadyPrefix is the line a worker prints once its listener is
// up; the dispatcher parses the address after it when spawning local
// stage processes.
const workerReadyPrefix = "edgepipe worker listening on "

// runWorker hosts one stage until the dispatcher shuts it down (exit 0
// after a graceful drain) or the process is signalled.
func runWorker(args []string) int {
	fs := flag.NewFlagSet("edgepipe worker", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP address for the stage's control and data connections")
	verbose := fs.Bool("v", false, "log connection, config, and drain events to stderr")
	_ = fs.Parse(args)

	w, err := cluster.NewWorker(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgepipe:", err)
		return 1
	}
	if *verbose {
		w.Logf = func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
	}
	fmt.Println(workerReadyPrefix + w.Addr())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "edgepipe: worker:", err)
		return 1
	}
	return 0
}

// runPipeline is the dispatcher: plan, split, connect, verify, serve.
func runPipeline(args []string) int {
	fs := flag.NewFlagSet("edgepipe run", flag.ExitOnError)
	modelName := fs.String("model", "CifarNet", "zoo model to serve")
	devicesCSV := fs.String("devices", "RPi3,JetsonNano,JetsonTX2", "ordered device chain for placement (one stage per device)")
	fwName := fs.String("framework", "TFLite", "framework the placement cost model assumes")
	linkName := fs.String("link", "ethernet", "inter-stage link for the placement cost model: ethernet or wifi")
	optLevel := fs.String("opt", "O0", "graph optimization level before splitting: O0, O1, or O2")
	seed := fs.Int64("seed", 11, "weight materialization seed")
	addr := fs.String("addr", "127.0.0.1:0", "HTTP front-end listen address")
	workersCSV := fs.String("workers", "", "comma-separated addresses of already-running stage workers; empty spawns one local worker process per stage")
	replicas := fs.Int("replicas", 0, "frames each stage worker computes at once, one engine replica apiece (0 = the worker's own core count, 1 = one frame at a time)")
	credits := fs.Int("credits", 0, "per-hop credit window (0 = default)")
	check := fs.Int("check", 4, "verify this many seeded inputs bitwise against a single-process run (0 disables)")
	queueCap := fs.Int("queue", 64, "front server: admission queue capacity")
	attack := fs.String("attack", "", "fire the built-in load generator: rate,duration[,burst] with rate in req/s or 'auto'")
	smoke := fs.Bool("smoke", false, "with -attack: exit nonzero unless the run is clean (zero failed requests, pipeline healthy, the heaviest stage seen computing two frames at once if it can)")
	verbose := fs.Bool("v", false, "log dispatcher progress to stderr")
	_ = fs.Parse(args)

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	}

	var link partition.Link
	switch *linkName {
	case "ethernet":
		link = partition.Ethernet
	case "wifi":
		link = partition.WiFi
	default:
		fmt.Fprintf(os.Stderr, "edgepipe: unknown -link %q (want ethernet or wifi)\n", *linkName)
		return 1
	}
	level, err := opt.ParseLevel(*optLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgepipe:", err)
		return 1
	}
	devices := splitCSV(*devicesCSV)
	if len(devices) < 2 {
		fmt.Fprintln(os.Stderr, "edgepipe: need at least two devices for a pipeline")
		return 1
	}

	// Placement: the analytic cost model picks the bottleneck-minimal
	// cuts for this device chain.
	plan, err := partition.PipelinePartition(*modelName, devices, *fwName, link)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgepipe:", err)
		return 1
	}
	fmt.Printf("%s across %d stages over %s (planned bottleneck %.2f ms, %.2fx single-device throughput):\n",
		plan.Model, len(plan.Stages), link.Name, plan.BottleneckSec*1e3, plan.ThroughputSpeedup())
	for i, st := range plan.Stages {
		fmt.Printf("  stage %d on %-12s %s .. %s (%.2f ms compute, %.0f B out)\n",
			i, st.Device, st.FirstOp, st.LastOp, st.ComputeSec*1e3, st.TransferBytes)
	}

	// Build the executable graph and split it along the plan's cuts.
	g := model.MustGet(plan.Model).Build(nn.Options{Materialize: true, Seed: *seed})
	if level > opt.O0 {
		orep, err := opt.Optimize(g, level)
		if err != nil {
			fmt.Fprintln(os.Stderr, "edgepipe:", err)
			return 1
		}
		fmt.Printf("optimized at %s: %s\n", level, orep)
	}
	parts, err := cluster.BuildStages(g, plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgepipe:", err)
		return 1
	}

	// Stage processes: attach to the given workers or spawn our own.
	var stages []cluster.Stage
	var procs []*exec.Cmd
	if *workersCSV != "" {
		for i, a := range splitCSV(*workersCSV) {
			dev := devices[min(i, len(devices)-1)]
			stages = append(stages, cluster.Stage{Addr: a, Device: dev})
		}
	} else {
		stages, procs, err = spawnWorkers(len(parts), devices, *verbose)
		if err != nil {
			fmt.Fprintln(os.Stderr, "edgepipe:", err)
			killAll(procs)
			return 1
		}
	}
	if len(stages) != len(parts) {
		fmt.Fprintf(os.Stderr, "edgepipe: %d workers for %d stages\n", len(stages), len(parts))
		killAll(procs)
		return 1
	}

	p, err := cluster.Connect(parts, stages, cluster.Options{
		Credits:  *credits,
		Replicas: *replicas,
		Logf:     logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgepipe:", err)
		killAll(procs)
		return 1
	}
	fmt.Printf("pipeline up: %d stages, exec %s, %d weight bytes\n",
		len(stages), p.ExecDType(), p.WeightBytes())

	// Bit-exactness: the distributed pipeline must reproduce a local
	// single-process executor exactly, frame for frame.
	if *check > 0 {
		if err := verifyBitExact(p, g, *check); err != nil {
			fmt.Fprintln(os.Stderr, "edgepipe:", err)
			_ = p.Close()
			killAll(procs)
			return 1
		}
		fmt.Printf("bit-exact: %d seeded frames match the single-process executor\n", *check)
	}

	srv := server.New(p, server.Config{QueueCap: *queueCap})
	wireStageMetrics(srv, p)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgepipe:", err)
		_ = p.Close()
		killAll(procs)
		return 1
	}
	hs := srv.HTTPServer()
	go func() { _ = hs.Serve(ln) }()
	front := ln.Addr().String()
	var perStage []string
	for _, st := range p.StageStats() {
		perStage = append(perStage, fmt.Sprint(st.Concurrency))
	}
	fmt.Printf("serving %s on http://%s (front of a %d-stage pipeline computing %s frames at once per stage, %d frames in flight)\n\n",
		plan.Model, front, len(stages), strings.Join(perStage, "/"), p.Concurrency())

	code := 0
	if *attack != "" {
		code = runAttack(p, g, "http://"+front, *attack, *seed, *smoke)
	} else {
		waitForSignal()
		fmt.Println("\nshutting down: draining the pipeline...")
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "edgepipe: shutdown:", err)
		code = 1
	}
	// Server.Close closes the engine — here the pipeline, whose Close
	// drains every stage; spawned workers then exit 0 on their own.
	if err := srv.Close(); err != nil && !errors.Is(err, cluster.ErrPipelineClosed) {
		fmt.Fprintln(os.Stderr, "edgepipe: close:", err)
		code = 1
	}
	for _, cmd := range procs {
		if err := waitOrKill(cmd, 10*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "edgepipe: worker:", err)
			code = 1
		}
	}
	return code
}

// spawnWorkers launches one `edgepipe worker` process per stage on an
// ephemeral port and parses each child's ready line for its address.
func spawnWorkers(n int, devices []string, verbose bool) ([]cluster.Stage, []*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var stages []cluster.Stage
	var procs []*exec.Cmd
	for i := 0; i < n; i++ {
		args := []string{"worker", "-listen", "127.0.0.1:0"}
		if verbose {
			args = append(args, "-v")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		// Workers get their own process group: a terminal Ctrl-C (or a
		// group-wide signal) must reach only the dispatcher, which then
		// drains the chain in stream order. Signaling the workers
		// directly would drop their sockets mid-drain and surface as
		// spurious stage failures.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return stages, procs, err
		}
		if err := cmd.Start(); err != nil {
			return stages, procs, err
		}
		procs = append(procs, cmd)
		addr, err := readReadyLine(out)
		if err != nil {
			return stages, procs, fmt.Errorf("stage %d worker: %w", i, err)
		}
		stages = append(stages, cluster.Stage{Addr: addr, Device: devices[min(i, len(devices)-1)]})
	}
	return stages, procs, nil
}

// readReadyLine waits (bounded) for a spawned worker's ready line and
// returns the address it announced.
func readReadyLine(out interface{ Read([]byte) (int, error) }) (string, error) {
	type lineOrErr struct {
		line string
		err  error
	}
	ch := make(chan lineOrErr, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), workerReadyPrefix); ok {
				ch <- lineOrErr{line: a}
				return
			}
		}
		err := sc.Err()
		if err == nil {
			err = errors.New("worker exited before announcing its address")
		}
		ch <- lineOrErr{err: err}
	}()
	select {
	case r := <-ch:
		return r.line, r.err
	case <-time.After(15 * time.Second):
		return "", errors.New("timed out waiting for the worker's ready line")
	}
}

// verifyBitExact runs n seeded inputs through the pipeline and through
// a local executor on the same graph and requires identical bits. (The
// stage workers' engines pre-pack their subgraph weights at session
// open; packed and unpacked weights give the same bits, so the local
// reference needs no packing of its own.)
func verifyBitExact(p *cluster.Pipeline, g *graph.Graph, n int) error {
	ex := &graph.Executor{}
	for s := int64(0); s < int64(n); s++ {
		in := server.SeededInput(g.Input.OutShape, s)
		want, err := ex.Run(g, in)
		if err != nil {
			return fmt.Errorf("local run: %w", err)
		}
		got, err := p.Infer(in.Clone())
		if err != nil {
			return fmt.Errorf("pipeline infer (seed %d): %w", s, err)
		}
		if !got.Shape.Equal(want.Shape) {
			return fmt.Errorf("seed %d: pipeline shape %v, single-process %v", s, got.Shape, want.Shape)
		}
		for i := range want.Data {
			// Exact equality is the contract: the distributed pipeline
			// must be bitwise identical to the local executor, not close.
			if got.Data[i] != want.Data[i] { // edgelint:ignore float-eq
				return fmt.Errorf("seed %d: pipeline output diverges at element %d (%v vs %v)",
					s, i, got.Data[i], want.Data[i])
			}
		}
	}
	return nil
}

// wireStageMetrics registers the per-stage gauge families and refreshes
// them from a StageStats poll at every /metrics scrape.
func wireStageMetrics(srv *server.Server, p *cluster.Pipeline) {
	r := srv.Metrics().Registry
	vecs := map[string]*metrics.GaugeVec{
		"lat_p50":  r.NewGaugeVec("edgepipe_stage_latency_p50_ms", "per-frame stage compute latency, median", "stage"),
		"lat_p95":  r.NewGaugeVec("edgepipe_stage_latency_p95_ms", "per-frame stage compute latency, 95th percentile", "stage"),
		"frames":   r.NewGaugeVec("edgepipe_stage_frames_total", "tensor frames forwarded downstream by the stage", "stage"),
		"bytes_in": r.NewGaugeVec("edgepipe_stage_transfer_bytes_in", "bytes received from upstream", "stage"),
		"bytes":    r.NewGaugeVec("edgepipe_stage_transfer_bytes_out", "bytes forwarded downstream", "stage"),
		"stalls":   r.NewGaugeVec("edgepipe_stage_credit_stalls_total", "times the stage blocked waiting for downstream credits", "stage"),
		"queue":    r.NewGaugeVec("edgepipe_stage_queue_depth", "frames waiting in the stage's input queue", "stage"),
		"conc":     r.NewGaugeVec("edgepipe_stage_concurrency", "frames the stage can compute at once (its compute loops)", "stage"),
		"inflight": r.NewGaugeVec("edgepipe_stage_inflight_max", "high-water count of frames inside the stage's engine at once", "stage"),
		"compute":  r.NewGaugeVec("edgepipe_stage_compute_seconds_total", "cumulative stage compute time", "stage"),
	}
	srv.OnScrape(func() {
		for _, st := range p.StageStats() {
			label := fmt.Sprintf("%d", st.Stage)
			vecs["lat_p50"].Set(label, st.P50Ms)
			vecs["lat_p95"].Set(label, st.P95Ms)
			vecs["frames"].Set(label, float64(st.FramesOut))
			vecs["bytes_in"].Set(label, float64(st.BytesIn))
			vecs["bytes"].Set(label, float64(st.BytesOut))
			vecs["stalls"].Set(label, float64(st.CreditStalls))
			vecs["queue"].Set(label, float64(st.QueueDepth))
			vecs["conc"].Set(label, float64(st.Concurrency))
			vecs["inflight"].Set(label, float64(st.InflightMax))
			vecs["compute"].Set(label, st.ComputeSeconds)
		}
	})
}

// runAttack measures a single-replica baseline, fires the load
// generator at the pipeline's front server, and (in smoke mode) turns
// the outcome into an exit code. The throughput beside one replica's is
// printed, not gated: the stages beat a replica only where each has a CPU
// of its own to overlap on, which no host this runs on has had.
func runAttack(p *cluster.Pipeline, g *graph.Graph, baseURL, attack string, seed int64, smoke bool) int {
	opts, err := server.ParseAttack(attack)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgepipe:", err)
		return 1
	}

	baselineCeil := measureBaseline(g)
	fmt.Printf("single-replica baseline: %.1f req/s ceiling\n", baselineCeil)
	if opts.Rate == 0 { // "auto": push past one replica so overlap shows
		opts.Rate = 1.5 * baselineCeil
	}
	opts.Seed = seed
	fmt.Printf("attack: %.1f req/s for %v in bursts of %d\n", opts.Rate, opts.Duration, opts.Burst)
	rep, err := server.Attack(baseURL, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgepipe:", err)
		return 1
	}
	achieved := float64(rep.OK) / opts.Duration.Seconds()
	fmt.Printf("live:      %s\n", rep)
	fmt.Printf("pipeline throughput %.1f req/s vs single-replica ceiling %.1f req/s (%.2fx)\n",
		achieved, baselineCeil, achieved/baselineCeil)

	raw, _, err := server.ScrapeMetrics(baseURL)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgepipe:", err)
		return 1
	}
	fmt.Println("\n/metrics excerpt:")
	for _, line := range strings.Split(raw, "\n") {
		if strings.HasPrefix(line, "edgepipe_stage_") {
			fmt.Println(" ", line)
		}
	}

	if !smoke {
		return 0
	}
	var problems []string
	if rep.Sent == 0 {
		problems = append(problems, "no requests sent")
	}
	if rep.Failed > 0 {
		problems = append(problems, fmt.Sprintf("%d failed requests", rep.Failed))
	}
	if err := p.Err(); err != nil && !errors.Is(err, cluster.ErrPipelineClosed) {
		problems = append(problems, fmt.Sprintf("pipeline error: %v", err))
	}
	// The stage with the most compute is where frames queue, so it is where
	// a second compute loop must have shown.
	var heaviest cluster.StageStats
	for _, st := range p.StageStats() {
		if st.ComputeSeconds > heaviest.ComputeSeconds {
			heaviest = st
		}
	}
	if heaviest.Concurrency >= 2 && opts.Burst >= 2 && heaviest.InflightMax < 2 {
		problems = append(problems, fmt.Sprintf("the heaviest stage (%d, %d compute loops) never held two frames at once",
			heaviest.Stage, heaviest.Concurrency))
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "\nedgepipe: smoke FAILED: %s\n", strings.Join(problems, "; "))
		return 1
	}
	fmt.Printf("\nsmoke OK: zero failed requests, pipeline healthy, heaviest stage (%d) held %d of %d frames at once\n",
		heaviest.Stage, heaviest.InflightMax, heaviest.Concurrency)
	return 0
}

// measureBaseline times single-stream inference on a one-replica local
// engine over the same graph and returns its request/second ceiling.
func measureBaseline(g *graph.Graph) float64 {
	eng, err := serving.NewEngine(g, 1)
	if err != nil {
		return 0
	}
	defer func() { _ = eng.Close() }()
	in := server.SeededInput(g.Input.OutShape, 0)
	_, _ = eng.Infer(in) // warm the arena
	const n = 5
	start := time.Now()
	for i := 0; i < n; i++ {
		_, _ = eng.Infer(in)
	}
	single := time.Since(start).Seconds() / n
	if single <= 0 {
		return 0
	}
	return 1 / single
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func killAll(procs []*exec.Cmd) {
	for _, cmd := range procs {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}
}

// waitOrKill waits for a spawned worker to exit on its own (the
// graceful path after Pipeline.Close) and kills it past the deadline.
func waitOrKill(cmd *exec.Cmd, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		<-done
		return errors.New("worker did not exit after drain; killed")
	}
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
