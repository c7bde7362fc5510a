// Command edgeserve explores a deployment's real-time serving envelope
// (§VI-C) in two modes.
//
// Simulation (default): latency percentiles across an arrival-rate
// sweep, the maximum rate sustaining a P99 budget, and behaviour at
// overload — all from the analytic discrete-event model.
//
// Live serving (-listen): materializes the model, builds a replica-pool
// engine, and serves real inferences over HTTP with admission control,
// one dispatcher per replica, and a Prometheus /metrics endpoint, so the
// simulated envelope can be validated against a live process. With
// -attack it also drives its own load generator against the listener and
// compares the measured tail to the simulation.
//
// Usage:
//
//	edgeserve -model MobileNet-v2 -framework TFLite -device EdgeTPU
//	edgeserve -model SSD-MobileNet-v1 -framework TensorRT -device JetsonNano -p99 50ms -periodic
//	edgeserve -model CifarNet -listen :8080 -replicas 4
//	edgeserve -model CifarNet -listen 127.0.0.1:0 -attack auto,2s,4 -smoke
//
// Endpoints: POST /infer ({"data":[...]} or {"seed":n,"deadline_ms":m}),
// GET /healthz, GET /metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edgebench/internal/core"
	"edgebench/internal/opt"
	"edgebench/internal/server"
	"edgebench/internal/serving"
)

func main() {
	modelName := flag.String("model", "MobileNet-v2", "model name")
	fwName := flag.String("framework", "TFLite", "framework name")
	devName := flag.String("device", "EdgeTPU", "device name")
	p99 := flag.Duration("p99", 100*time.Millisecond, "tail-latency budget")
	duration := flag.Float64("duration", 90, "simulated seconds per point")
	periodic := flag.Bool("periodic", false, "fixed-interval (camera) arrivals instead of Poisson")
	seed := flag.Int64("seed", 1, "simulation and weight seed")

	listen := flag.String("listen", "", "serve real inferences over HTTP on this address (e.g. :8080); empty runs the simulation")
	replicas := flag.Int("replicas", 0, "executor replicas in the serving engine (0 = GOMAXPROCS)")
	queueCap := flag.Int("queue", 64, "admission queue capacity (overflow is shed with 429)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = none)")
	attack := flag.String("attack", "", "fire the built-in load generator: rate,duration[,burst] with rate in req/s or 'auto'")
	smoke := flag.Bool("smoke", false, "with -attack: exit nonzero unless the run is clean (no errors, no shed, replicas ran concurrently)")
	quantize := flag.String("quantize", "", "execution quantization for live serving: 'int8' (per-tensor) or 'int8-perchannel'; empty serves FP32")
	optLevel := flag.String("opt", "O0", "graph optimization level for live serving: O0 (off), O1 (cleanups), O2 (cleanups + pattern fusion)")
	flag.Parse()

	if *quantize != "" && *quantize != "int8" && *quantize != "int8-perchannel" {
		fmt.Fprintf(os.Stderr, "edgeserve: unknown -quantize mode %q (want int8 or int8-perchannel)\n", *quantize)
		os.Exit(1)
	}
	level, err := opt.ParseLevel(*optLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgeserve:", err)
		os.Exit(1)
	}

	s, err := core.New(*modelName, *fwName, *devName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgeserve:", err)
		os.Exit(1)
	}
	base := s.InferenceSeconds()
	fmt.Printf("%s via %s on %s: %.1f ms/inference (service ceiling %.1f req/s)\n\n",
		*modelName, *fwName, *devName, base*1e3, 1/base)

	if *listen == "" {
		simulate(s, *p99, *duration, *periodic, *seed)
		return
	}
	serve(s, serveOptions{
		listen:   *listen,
		replicas: *replicas,
		seed:     *seed,
		p99:      *p99,
		attack:   *attack,
		smoke:    *smoke,
		quantize: *quantize,
		level:    level,
		cfg: server.Config{
			QueueCap: *queueCap,
			Deadline: *deadline,
		},
	})
}

// simulate is the original analytic mode: a load sweep plus the max
// sustainable rate under the P99 budget.
func simulate(s *core.Session, p99 time.Duration, duration float64, periodic bool, seed int64) {
	base := s.InferenceSeconds()
	fmt.Printf("%-10s %10s %10s %10s %10s %8s\n", "load", "req/s", "p50", "p95", "p99", "util")
	for _, rho := range []float64{0.2, 0.5, 0.8, 0.95, 1.2} {
		rate := rho / base
		r, err := serving.Simulate(s, serving.Config{
			ArrivalPerSec: rate, DurationSec: duration, Seed: seed, Periodic: periodic,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "edgeserve:", err)
			os.Exit(1)
		}
		fmt.Printf("%-10.2f %10.1f %9.1fms %9.1fms %9.1fms %7.0f%%\n",
			rho, rate, r.P50*1e3, r.P95*1e3, r.P99*1e3, r.Utilization*100)
	}

	maxRate, err := serving.MaxSustainableRate(s, p99.Seconds(), duration, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edgeserve:", err)
		os.Exit(1)
	}
	if maxRate == 0 {
		fmt.Printf("\nno arrival rate meets p99 <= %v (a single inference already misses)\n", p99)
		return
	}
	fmt.Printf("\nmax sustainable rate at p99 <= %v: %.1f req/s (%.0f%% of the service ceiling)\n",
		p99, maxRate, 100*maxRate*base)
}

type serveOptions struct {
	listen   string
	replicas int
	seed     int64
	p99      time.Duration
	attack   string
	smoke    bool
	quantize string
	level    opt.Level
	cfg      server.Config
}

// serve is the live mode: materialize, optimize, build the engine and
// HTTP server, then either run the load generator or block until a
// signal. The optimization level runs before quantization so the int8
// pass sees the fused graph (epilogue-fused nodes keep FP32 fused
// kernels; the rest dispatch int8).
func serve(s *core.Session, o serveOptions) {
	if err := s.Materialize(o.seed); err != nil {
		fatal(err)
	}
	if o.level > opt.O0 {
		rep, err := s.Optimize(o.level)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("optimized at %s: %s\n", o.level, rep)
	}
	g := s.Lowered()
	switch o.quantize {
	case "int8":
		opt.QuantizeINT8(g)
	case "int8-perchannel":
		opt.QuantizeINT8PerChannel(g)
	}
	eng, err := serving.NewEngine(g, o.replicas)
	if err != nil {
		fatal(err)
	}
	warmStart := time.Now()
	if err := eng.Warmup(); err != nil {
		fatal(err)
	}
	warm := time.Since(warmStart)
	srv := server.New(eng, o.cfg)
	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		fatal(err)
	}
	hs := srv.HTTPServer()
	go hs.Serve(ln)
	addr := ln.Addr().String()
	fmt.Printf("serving %s on http://%s (replicas %d, queue %d, exec %s, weights %d bytes, warmed in %v)\n",
		s.Model.Name, addr, eng.Replicas(), o.cfg.QueueCap, eng.ExecDType(), eng.WeightBytes(), warm.Round(time.Microsecond))

	// The simulated envelope for the same deployment, for comparison.
	simMax, err := serving.MaxSustainableRate(s, o.p99.Seconds(), 30, o.seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("simulated envelope: max %.1f req/s at p99 <= %v\n\n", simMax, o.p99)

	exitCode := 0
	if o.attack != "" {
		exitCode = runAttack(srv, eng, "http://"+addr, o, simMax)
	} else {
		waitForSignal()
		fmt.Println("\nshutting down: draining connections and queued requests...")
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "edgeserve: shutdown:", err)
		exitCode = 1
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "edgeserve: close:", err)
		exitCode = 1
	}
	os.Exit(exitCode)
}

// runAttack fires the load generator at the live listener, prints the
// comparison against the analytic envelope, scrapes /metrics, and (in
// smoke mode) asserts the run was clean. Returns the process exit code.
func runAttack(srv *server.Server, eng *serving.Engine, baseURL string, o serveOptions, simMax float64) int {
	opts, err := server.ParseAttack(o.attack)
	if err != nil {
		fatal(err)
	}
	if opts.Rate == 0 { // "auto": probe live capacity, stay well inside it
		single := measureLive(eng)
		liveCeil := 1 / single
		opts.Rate = 0.5 * liveCeil
		if simMax > 0 && 0.5*simMax < opts.Rate {
			opts.Rate = 0.5 * simMax
		}
		fmt.Printf("auto rate: live single-stream %.1f ms/inf (ceiling %.1f req/s) -> attacking at %.1f req/s\n",
			single*1e3, liveCeil, opts.Rate)
	}
	opts.Seed = o.seed
	fmt.Printf("attack: %.1f req/s for %v in bursts of %d\n", opts.Rate, opts.Duration, opts.Burst)
	rep, err := server.Attack(baseURL, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("live:      %s\n", rep)

	raw, series, err := server.ScrapeMetrics(baseURL)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\n/metrics excerpt:")
	for _, line := range strings.Split(raw, "\n") {
		if strings.HasPrefix(line, "edgeserve_") {
			fmt.Println(" ", line)
		}
	}

	if !o.smoke {
		return 0
	}
	var problems []string
	if rep.Sent == 0 {
		problems = append(problems, "no requests sent")
	}
	if rep.Failed > 0 {
		problems = append(problems, fmt.Sprintf("%d failed requests", rep.Failed))
	}
	if rep.Shed > 0 {
		problems = append(problems, fmt.Sprintf("%d shed requests at a rate below the envelope", rep.Shed))
	}
	if rep.Deadline > 0 {
		problems = append(problems, fmt.Sprintf("%d deadline misses", rep.Deadline))
	}
	if ok := series[`edgeserve_requests_total{code="200"}`]; int(ok) != rep.OK {
		problems = append(problems, fmt.Sprintf("metrics report %d OKs, load generator saw %d", int(ok), rep.OK))
	}
	if errs := series["edgeserve_engine_errors_total"]; errs != 0 {
		problems = append(problems, fmt.Sprintf("%v engine errors", errs))
	}
	if want := min(eng.Replicas(), opts.Burst); series["edgeserve_engine_inflight_max"] < float64(want) {
		problems = append(problems, fmt.Sprintf("replicas never ran concurrently (edgeserve_engine_inflight_max < %d)", want))
	}
	if o.quantize != "" {
		if series[`edgeserve_exec_dtype{dtype="int8"}`] < 1 {
			problems = append(problems, "quantized serving did not report exec dtype int8")
		}
		if series["edgeserve_int8_kernel_dispatches"] < 1 {
			problems = append(problems, "quantized serving dispatched no int8 kernels")
		}
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "\nedgeserve: smoke FAILED: %s\n", strings.Join(problems, "; "))
		return 1
	}
	fmt.Println("\nsmoke OK: zero errors, zero shed, replicas ran concurrently")
	return 0
}

// measureLive times a few single-stream inferences through the engine
// to find the real (host) service rate, which bounds a sane attack.
func measureLive(eng *serving.Engine) float64 {
	in := server.SeededInput(eng.InputShape(), 0)
	_, _ = eng.Infer(in) // warm the replica's arena; timing, not correctness
	const n = 3
	start := time.Now()
	for i := 0; i < n; i++ {
		_, _ = eng.Infer(in)
	}
	return time.Since(start).Seconds() / n
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edgeserve:", err)
	os.Exit(1)
}
