// Command bench is the repository's benchmark: four fixed-count
// closed-loop workloads over the real engine, HTTP server and stage
// pipeline, every output verified bit for bit. See README.md beside it.
//
//	bash bench/run.sh --workload stream-mbv2-fp32 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --seed 1            # all four workloads
//	bash bench/run.sh --seed 1 --trace 1  # the separate traced run
//	bash bench/run.sh --noise 5           # two sets of 5 runs, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names one metric and its unit; BENCHMARK.json lists the same
// names in the same order (bench_test.go compares them).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_op", "ms"},
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// config is what the command line fixes for one run.
type config struct {
	seed    int64
	seconds int
	procs   int
	outDir  string
	// ops and setupReps, when positive, replace the sizes derived from
	// seconds and the workload table (the smoke test runs tiny loops).
	ops       int
	setupReps int
}

// sizes returns the timed loop's op count and the set-up repetitions.
func (c config) sizes(w *workload) (ops, reps int) {
	ops, reps = w.opsFor(c.seconds), w.setupReps
	if c.ops > 0 {
		ops = c.ops
	}
	if c.setupReps > 0 {
		reps = c.setupReps
	}
	return ops, reps
}

// result is one run's verdict and numbers; its JSON form is the last line
// of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(defs []metricDef, values map[string]float64, attempted, failed int) result {
	r := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// timeSetups sets the workload up reps+1 times and returns the wall time
// of all but the first, as measured and divided by the host factor of the
// calibration phases around each; every target is torn down before the
// next phase. It holds GOMAXPROCS at 1 meanwhile: the only parallel part
// of set-up is Engine.Warmup's fork-join over a kernel pool that has just
// started, and whether its workers enlist in time is a coin toss that made
// PR 11's setup_s bimodal. The last repetition is traced when tr is set.
func timeSetups(w *workload, replicas, reps int, tr *tracer) (raw, norm []float64, err error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	cal := newCalibrator(1, reps+2)
	defer cal.close()
	cal.phase()
	for i := 0; i <= reps; i++ {
		var t *tracer
		if i == reps {
			t = tr
		}
		runtime.GC()
		start := time.Now()
		tg, err := setUp(w, replicas, t)
		elapsed := time.Since(start)
		if err != nil {
			return nil, nil, err
		}
		tg.close()
		cal.phase()
		if i > 0 {
			raw = append(raw, elapsed.Seconds())
		}
	}
	for i, t := range raw {
		norm = append(norm, t/cal.factor(i+2))
	}
	return raw, norm, nil
}

// prepared is a workload ready for its timed loop.
type prepared struct {
	t      *target
	in     inputs
	refs   [][]float32
	digest uint64
}

func prepare(w *workload, cfg config) (*prepared, error) {
	t, err := setUp(w, cfg.procs, nil)
	if err != nil {
		return nil, err
	}
	p := &prepared{t: t, in: makeInputs(t.inputShape(), cfg.seed)}
	if p.refs, p.digest, err = t.references(p.in); err != nil {
		t.close()
		return nil, err
	}
	return p, nil
}

// loop runs warmOps untimed ops, collects garbage, then runs the timed
// loop. The second result is the warm-up's, whose outputs are verified too.
func (p *prepared) loop(cfg config, ops int, do opFunc, tr *tracer) (timed, warm loadResult) {
	spec := loadSpec{
		ops:     warmOps,
		clients: p.t.w.clients,
		do:      do,
		refs:    p.refs,
		maxWall: 3 * time.Duration(cfg.seconds) * time.Second,
		child:   p.t.w.childSpan(),
	}
	warm = runLoad(spec)
	runtime.GC()
	// Every workload keeps every core busy — a lone client's ops shard
	// across them, two clients take one each — so every core is sampled.
	spec.ops, spec.tr, spec.segOps = ops, tr, p.t.w.segOps
	spec.cal = newCalibrator(cfg.procs, ops/max(spec.segOps, 1)+2)
	defer spec.cal.close()
	return runLoad(spec), warm
}

// loopMetrics derives the loop-based end-to-end metrics, as measured or
// normalised to calUnit's host speed.
func loopMetrics(res loadResult, normalised bool, into map[string]float64) {
	lat, wall, cpu := res.latMs, res.wall, res.cpu
	if normalised {
		lat, wall, cpu = res.normLatMs, res.normWall, res.normCPU
	}
	into["lat_p50_ms"] = percentile(lat, 50)
	into["lat_p90_ms"] = percentile(lat, 90)
	into["throughput_rps"] = float64(res.attempted-res.failed) / wall.Seconds()
	into["cpu_ms_per_op"] = cpu.Seconds() * 1e3 / float64(max(res.attempted, 1))
}

// runEndToEnd is the untraced run: it measures every end-to-end metric of
// one workload.
func runEndToEnd(w *workload, cfg config) (result, error) {
	ops, reps := cfg.sizes(w)
	setups, normSetups, err := timeSetups(w, cfg.procs, reps, nil)
	if err != nil {
		return result{}, err
	}
	p, err := prepare(w, cfg)
	if err != nil {
		return result{}, err
	}
	defer p.t.close()
	do, err := p.t.opFunc(p.in, nil)
	if err != nil {
		return result{}, err
	}
	timed, warm := p.loop(cfg, ops, do, nil)
	attempted, failed := timed.attempted+warm.attempted, timed.failed+warm.failed

	raw := map[string]float64{"setup_s": median(setups)}
	loopMetrics(timed, false, raw)
	values := map[string]float64{"setup_s": median(normSetups)}
	loopMetrics(timed, true, values)
	fmt.Printf("workload %s seed=%d ops=%d clients=%d setup_reps=%d reference_digest=%016x\n",
		w.name, cfg.seed, ops, w.clients, reps, p.digest)
	fmt.Printf("  timed loop: %d latency samples in %.3f s; attempted=%d failed=%d (warm-up: attempted=%d failed=%d)\n",
		len(timed.latMs), timed.wall.Seconds(), timed.attempted, timed.failed, warm.attempted, warm.failed)
	fmt.Printf("  %-32s %14.6g %s\n", "fail_ratio", float64(failed)/float64(max(attempted, 1)), "ratio")
	fmt.Printf("  host factor: set-up %.4f, loop %.4f (1 = calUnit; sampled only while the system under test is idle)\n",
		median(setups)/median(normSetups), timed.hostFactor())
	fmt.Println("  as measured:")
	printMetrics(endToEnd, raw)
	fmt.Println("  normalised to calUnit's host speed (the reported values):")
	printMetrics(endToEnd, values)
	return newResult(endToEnd, values, attempted, failed), nil
}

func printMetrics(defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
}

// hostFingerprint describes the machine every number depends on.
func hostFingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d go=%s %s/%s GOMAXPROCS=%d",
		cpu, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0))
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", defaultSeconds, "nominal length of the timed loop; fixes the op count")
		trace   = flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		noise   = flag.Int("noise", 0, "run the noise self-check with two sets of this many runs")
		outDir  = flag.String("out", "bench/out", "directory the traced run writes span files to")
	)
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 || *noise < 0 || flag.NArg() > 0 {
		flag.Usage()
		return 2
	}
	if *noise > 0 {
		return noiseCheck(*noise, *seconds)
	}
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	fmt.Println(hostFingerprint())

	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: no workload %q\n", *name)
			return 2
		}
		selected = []workload{*w}
	}
	cfg := config{seed: *seed, seconds: *seconds, procs: procs, outDir: *outDir}
	code := 0
	for i := range selected {
		var (
			res result
			err error
		)
		if *trace == 1 {
			res, err = runTraced(&selected[i], cfg)
		} else {
			res, err = runEndToEnd(&selected[i], cfg)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d outputs unverified\n", selected[i].name, res.Failed, res.Attempted)
			code = 1
		}
	}
	return code
}
