// Command engbench benchmarks the numeric execution engine — the
// blocked GEMM kernels and the pooled (static-memory-planner) executor —
// and writes the measurements to BENCH_engine.json so perf regressions
// are diffable across commits.
//
// Groups:
//
//   - matmul: naive ijk baseline vs the cache-blocked serial kernel vs
//     the pool-sharded parallel kernel, at a large square size.
//   - conv2d: one layer through the serial direct loop, the unpacked
//     im2col+GEMM kernel and the pre-packed kernel.
//   - forward: a full MobileNet-class model forward pass, one change per
//     rung: unpooled, pooled (allocs/op capturing the static memory
//     planner's effect), pre-packed, int8, O2-fused.
//   - scaling: the -procs sweep re-times the blocked vs parallel GEMM
//     and the pooled forward pass at each GOMAXPROCS setting (resizing
//     the persistent kernel worker pool in-process), recording the
//     intra-op scaling curve.
//
// The headline groups run at the host's full width: GOMAXPROCS is
// pinned to NumCPU at startup, so p=1 appears only as a swept point in
// the scaling group, never as an accidental headline configuration.
//
// Speedups are computed from the host's actual timings. The scaling
// regression gate (parallel beats serial) only enforces at swept points
// with 4 <= p <= NumCPU: below that the pool legitimately cannot win,
// and points above the physical core count oversubscribe. The pre-pack
// gate likewise enforces only on hosts with >= 4 CPUs. On smaller hosts
// every waived gate says so loudly; the curves are still recorded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/tensor"
)

type result struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// scalePoint is one GOMAXPROCS setting's measurements in the scaling
// sweep.
type scalePoint struct {
	GoMaxProcs int                `json:"gomaxprocs"`
	Results    []result           `json:"results"`
	Summary    map[string]float64 `json:"summary"`
}

type report struct {
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	GemmDim    int                `json:"gemm_dim"`
	Model      string             `json:"model"`
	Results    []result           `json:"results"`
	Summary    map[string]float64 `json:"summary"`
	Scaling    []scalePoint       `json:"scaling"`
}

func bench(name string, results *[]result, fn func(b *testing.B)) result {
	r := testing.Benchmark(fn)
	out := result{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	fmt.Printf("%-24s %12d ns/op %10d allocs/op %12d B/op\n",
		name, out.NsPerOp, out.AllocsPerOp, out.BytesPerOp)
	*results = append(*results, out)
	return out
}

// benchMin measures fn three times and keeps the fastest run. The
// epilogue gates compare timings a few percent apart; on small shared
// hosts a single run swings more than that, and the minimum is the
// standard noise-robust estimator for "how fast can this code go".
func benchMin(name string, results *[]result, fn func(b *testing.B)) result {
	var best result
	for i := 0; i < 3; i++ {
		r := testing.Benchmark(fn)
		if i == 0 || r.NsPerOp() < best.NsPerOp {
			best = result{
				Name:        name,
				NsPerOp:     r.NsPerOp(),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
		}
	}
	fmt.Printf("%-24s %12d ns/op %10d allocs/op %12d B/op  (min of 3)\n",
		best.Name, best.NsPerOp, best.AllocsPerOp, best.BytesPerOp)
	*results = append(*results, best)
	return best
}

// parseProcs parses the -procs flag ("1,2,4,8") into a sorted-as-given
// list of positive ints; empty string means no sweep.
func parseProcs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var ps []int
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad -procs entry %q", f)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

func naiveMatMul(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for l := 0; l < k; l++ {
				s += a[i*k+l] * b[l*n+j]
			}
			dst[i*n+j] = s
		}
	}
}

func fill(t *tensor.Tensor, seed int) {
	for i := range t.Data {
		t.Data[i] = float32((i*2654435761+seed)%1024)/512 - 1
	}
}

func main() {
	dim := flag.Int("dim", 512, "square GEMM dimension for the matmul group")
	modelName := flag.String("model", "MobileNet-v2", "zoo model for the forward group")
	benchtime := flag.String("benchtime", "300ms", "per-benchmark measurement budget")
	procsFlag := flag.String("procs", "1,2,4,8", "comma-separated GOMAXPROCS sweep for the scaling group (empty disables)")
	out := flag.String("o", "BENCH_engine.json", "output JSON path")
	testing.Init()
	flag.Parse()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		log.Fatal(err)
	}
	procs, err := parseProcs(*procsFlag)
	if err != nil {
		log.Fatal(err)
	}

	// Headline groups describe the machine at full width, not whatever
	// GOMAXPROCS the caller happened to inherit; p=1 is a scaling-sweep
	// point only.
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep := &report{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GemmDim:    *dim,
		Model:      *modelName,
		Summary:    map[string]float64{},
	}

	// --- matmul group -------------------------------------------------
	d := *dim
	a, b := tensor.New(d, d), tensor.New(d, d)
	fill(a, 1)
	fill(b, 2)
	dst := make([]float32, d*d)
	naive := bench("matmul/naive", &rep.Results, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			naiveMatMul(dst, a.Data, b.Data, d, d, d)
		}
	})
	blocked := bench("matmul/blocked", &rep.Results, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.MatMulSerial(a, b)
		}
	})
	par := bench("matmul/parallel", &rep.Results, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.MatMulParallel(a, b)
		}
	})
	rep.Summary["matmul_blocked_vs_naive_speedup"] = ratio(naive.NsPerOp, blocked.NsPerOp)
	rep.Summary["matmul_parallel_vs_naive_speedup"] = ratio(naive.NsPerOp, par.NsPerOp)
	rep.Summary["matmul_parallel_vs_blocked_speedup"] = ratio(blocked.NsPerOp, par.NsPerOp)

	// --- conv2d group -------------------------------------------------
	in := tensor.New(32, 56, 56)
	w := tensor.New(64, 32, 3, 3)
	fill(in, 3)
	fill(w, 4)
	bias := make([]float32, 64)
	spec := tensor.Conv2DSpec{Stride: 1, Pad: 1}
	// Three rungs of one layer: the serial loop nest the tests use as the
	// oracle, the im2col+GEMM kernel an unpacked graph runs (weights
	// packed into panels on every call), and the kernel a pre-packed graph
	// runs (panels built once, outside the timed loop). The whole group
	// runs min-of-3: single runs on small shared hosts swing by more than
	// the packing step costs.
	direct := benchMin("conv2d/direct", &rep.Results, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.Conv2D(in, w, bias, spec)
		}
	})
	cdst := tensor.New(64, 56, 56)
	gemm := benchMin("conv2d/gemm", &rep.Results, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.Conv2DGEMMFusedInto(cdst, in, w, bias, spec, tensor.Epilogue{}, 0)
		}
	})
	pw := tensor.PackConvWeights(w)
	packed := benchMin("conv2d/prepacked", &rep.Results, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.Conv2DPrepackedInto(cdst, in, pw, bias, spec, tensor.Epilogue{})
		}
	})
	rep.Summary["conv2d_gemm_vs_direct_speedup"] = ratio(direct.NsPerOp, gemm.NsPerOp)
	rep.Summary["conv2d_prepacked_vs_gemm_speedup"] = ratio(gemm.NsPerOp, packed.NsPerOp)

	// --- epilogue group: folded vs two-sweep fused kernel. The depthwise
	// convolution applies the absorbed-BN affine and the activation
	// inside the row loop while each output row is cache-hot; the
	// reference runs the same kernel with nothing fused, then sweeps the
	// whole output twice via Epilogue.ApplyInto. Same floats either way
	// (the fold is bit-exact); the delta is pure memory traffic, and
	// depthwise — near-zero arithmetic intensity — is where the
	// eliminated sweeps must show.
	ein := tensor.New(64, 128, 128)
	edw := tensor.New(64, 3, 3)
	fill(ein, 6)
	fill(edw, 7)
	ebias := make([]float32, 64)
	epi := tensor.Epilogue{
		Scale: make([]float32, 64),
		Shift: make([]float32, 64),
		Act:   tensor.ActReLU6,
	}
	for i := range epi.Scale {
		epi.Scale[i] = 1 + float32(i%7)/16
		epi.Shift[i] = float32(i%5)/8 - 0.25
	}
	edst := tensor.New(64, 128, 128)
	dwSweep := benchMin("epilogue/dw-sweep", &rep.Results, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.DepthwiseConv2DFusedInto(edst, ein, edw, ebias, spec, tensor.Epilogue{})
			epi.ApplyInto(edst)
		}
	})
	dwFold := benchMin("epilogue/dw-folded", &rep.Results, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.DepthwiseConv2DFusedInto(edst, ein, edw, ebias, spec, epi)
		}
	})
	rep.Summary["epilogue_dw_folded_vs_sweep_speedup"] = ratio(dwSweep.NsPerOp, dwFold.NsPerOp)

	// --- qgemm group: the real-int8 kernel vs the blocked FP32 kernel.
	// Same pinned dim as the matmul group; the int8 kernel must be
	// strictly faster here (enforced below) or the quantized execution
	// path has regressed into marketing.
	qa, qb := make([]int8, d*d), make([]int8, d*d)
	for i := range qa {
		qa[i] = int8(i%255 - 127)
		qb[i] = int8((i*7)%255 - 127)
	}
	qdst := make([]int32, d*d)
	qserial := bench("qgemm/int8-serial", &rep.Results, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.QGEMMSerial(qdst, qa, qb, d, d, d)
		}
	})
	bench("qgemm/int8-parallel", &rep.Results, func(bb *testing.B) {
		for i := 0; i < bb.N; i++ {
			tensor.QGEMM(qdst, qa, qb, d, d, d)
		}
	})
	rep.Summary["qgemm_int8_vs_fp32_blocked_speedup"] = ratio(blocked.NsPerOp, qserial.NsPerOp)

	// --- forward group ------------------------------------------------
	spec2, ok := model.Get(*modelName)
	if !ok {
		log.Fatalf("unknown model %q", *modelName)
	}
	g := spec2.Build(nn.Options{Materialize: true, Seed: 11})
	input := tensor.New(g.Input.OutShape...)
	fill(input, 5)
	forward := func(ex *graph.Executor, fg *graph.Graph) func(b *testing.B) {
		return func(bb *testing.B) {
			if _, err := ex.Run(fg, input); err != nil { // warmup: plan + arena
				bb.Fatal(err)
			}
			bb.ResetTimer()
			for i := 0; i < bb.N; i++ {
				if _, err := ex.Run(fg, input); err != nil {
					bb.Fatal(err)
				}
			}
		}
	}
	serial := bench("forward/serial", &rep.Results, forward(&graph.Executor{}, g))
	// Pooled feeds the prepack gate, so it gets the noise-robust
	// estimator.
	fpool := benchMin("forward/pooled", &rep.Results, forward(&graph.Executor{Pooled: true}, g))
	rep.Summary["forward_pooled_alloc_reduction"] = reduction(serial.AllocsPerOp, fpool.AllocsPerOp)

	// --- prepack group ------------------------------------------------
	// Session-open weight pre-packing: every GEMM-executable operand is
	// packed into the blocked-panel layout once, and the forward pass
	// dispatches on the cached panels instead of packing per call. Each
	// rung from here on changes one thing against this one.
	pg := g.Clone()
	npk := graph.PrepackWeights(pg)
	fmt.Printf("%-24s %d weight operands packed ahead of time\n", "prepack", npk)
	prepacked := benchMin("forward/prepacked", &rep.Results, forward(&graph.Executor{Pooled: true}, pg))
	rep.Summary["forward_prepacked_vs_unpacked_speedup"] = ratio(fpool.NsPerOp, prepacked.NsPerOp)

	// Whole-model quantized forward: the same graph through QuantizeINT8
	// and pre-packed again, so dense convs and dense layers run the int8
	// kernels and the rest falls back to FP32.
	qg := g.Clone()
	opt.QuantizeINT8(qg)
	graph.PrepackWeights(qg)
	qfwd := benchMin("forward/int8-pooled", &rep.Results, forward(&graph.Executor{Pooled: true}, qg))
	rep.Summary["forward_int8_vs_fp32_speedup"] = ratio(prepacked.NsPerOp, qfwd.NsPerOp)

	// Pattern-fused forward: the same graph through the O2 pass pipeline
	// (which pre-packs too), so Conv→BN→act chains collapse into single
	// fused-kernel dispatches (BN as a per-channel epilogue —
	// bit-identical to the unfused chain).
	fg := g.Clone()
	fg.Frozen = false
	orep, err := opt.Optimize(fg, opt.O2)
	if err != nil {
		log.Fatalf("engbench: O2 optimization of %s failed: %v", *modelName, err)
	}
	fmt.Printf("%-24s %s\n", "opt/O2", orep)
	fused := benchMin("forward/fused", &rep.Results, forward(&graph.Executor{Pooled: true}, fg))
	rep.Summary["forward_fused_vs_fp32_speedup"] = ratio(prepacked.NsPerOp, fused.NsPerOp)

	// --- scaling sweep ------------------------------------------------
	// Re-time the parallel-vs-serial pairs at each GOMAXPROCS setting.
	// runtime.GOMAXPROCS(p) takes effect immediately and the tensor
	// worker pool resizes itself to match on its next dispatch, so the
	// whole curve comes from one process. Executors are rebuilt per
	// point so cached programs never leak timing between settings.
	ambient := runtime.GOMAXPROCS(0)
	for _, p := range procs {
		fmt.Printf("\n--- scaling GOMAXPROCS=%d ---\n", p)
		runtime.GOMAXPROCS(p)
		sp := scalePoint{GoMaxProcs: p, Summary: map[string]float64{}}
		tensor.MatMulParallel(a, b) // warm the resized pool
		sblk := bench("matmul/blocked", &sp.Results, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				tensor.MatMulSerial(a, b)
			}
		})
		spar := bench("matmul/parallel", &sp.Results, func(bb *testing.B) {
			for i := 0; i < bb.N; i++ {
				tensor.MatMulParallel(a, b)
			}
		})
		bench("forward/pooled", &sp.Results, forward(&graph.Executor{Pooled: true}, g))
		sp.Summary["matmul_parallel_vs_blocked_speedup"] = ratio(sblk.NsPerOp, spar.NsPerOp)
		rep.Scaling = append(rep.Scaling, sp)
	}
	runtime.GOMAXPROCS(ambient)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGOMAXPROCS=%d  blocked GEMM %.2fx vs naive, int8 GEMM %.2fx vs blocked FP32, int8 forward %.2fx vs FP32, pooled forward cuts allocs/op by %.1f%%\nwrote %s\n",
		rep.GoMaxProcs,
		rep.Summary["matmul_blocked_vs_naive_speedup"],
		rep.Summary["qgemm_int8_vs_fp32_blocked_speedup"],
		rep.Summary["forward_int8_vs_fp32_speedup"],
		100*rep.Summary["forward_pooled_alloc_reduction"],
		*out)

	// Regression guard (make bench's gate): at the pinned benchmark dim
	// the int8 GEMM must be strictly faster than the blocked FP32 GEMM.
	if *dim == 512 && qserial.NsPerOp >= blocked.NsPerOp {
		fmt.Fprintf(os.Stderr, "engbench: REGRESSION: int8 GEMM %d ns/op is not below blocked FP32 %d ns/op at dim %d\n",
			qserial.NsPerOp, blocked.NsPerOp, *dim)
		os.Exit(1)
	}
	// Whole-model gates. The quantized forward and the O2-fused forward
	// are each one change away from the pre-packed FP32 forward, which
	// already runs the fast GEMM lowering, so each is worth a few percent
	// of a pass the three spend mostly in the same depthwise and GEMM
	// loops. The gates therefore catch a path that got slower than its
	// baseline beyond timer noise (10% on a whole forward) — int8 fallen
	// back to a slow kernel, fusion that broke a kernel's loop — not one
	// that merely stopped winning.
	for _, c := range []struct {
		what string
		r    result
	}{{"int8", qfwd}, {"fused", fused}} {
		if c.r.NsPerOp > prepacked.NsPerOp+prepacked.NsPerOp/10 {
			fmt.Fprintf(os.Stderr, "engbench: REGRESSION: %s forward %d ns/op is above the pre-packed FP32 forward %d ns/op beyond noise for %s\n",
				c.what, c.r.NsPerOp, prepacked.NsPerOp, *modelName)
			os.Exit(1)
		}
	}

	// Epilogue-folding gate: the row-folded depthwise kernel eliminates
	// two full output sweeps from an op with near-zero arithmetic
	// intensity, so it must not lose to the sweep version beyond timer
	// noise (5%).
	if dwFold.NsPerOp > dwSweep.NsPerOp+dwSweep.NsPerOp/20 {
		fmt.Fprintf(os.Stderr, "engbench: REGRESSION: folded depthwise epilogue %d ns/op is above two-sweep %d ns/op\n",
			dwFold.NsPerOp, dwSweep.NsPerOp)
		os.Exit(1)
	}

	// Pre-pack gate: session-open pre-packing must pay for itself. The
	// prepacked forward runs the same GEMMs minus the per-call weight
	// packing, so it must not lose to the unpacked pooled forward beyond
	// timer noise (5%). It compares timings of the same arithmetic under
	// different memory behavior, so it enforces only on hosts with >= 4
	// CPUs — the CI floor bench-smoke documents — and is loudly waived
	// below it (ratio still recorded above).
	if rep.NumCPU < 4 {
		fmt.Fprintf(os.Stderr, "engbench: prepack gate WAIVED: host has %d CPUs (< 4); ratio recorded, not enforced\n",
			rep.NumCPU)
	} else if prepacked.NsPerOp > fpool.NsPerOp+fpool.NsPerOp/20 {
		fmt.Fprintf(os.Stderr, "engbench: REGRESSION: prepacked forward %d ns/op is above unpacked %d ns/op beyond noise\n",
			prepacked.NsPerOp, fpool.NsPerOp)
		os.Exit(1)
	}

	// Scaling gate: intra-op parallelism must actually win where it can.
	// At every swept point with 4 <= p <= NumCPU, the pool-sharded GEMM
	// must beat the serial blocked kernel at the same p, and the pooled
	// forward must beat the p=1 pooled forward (the p=1 point executes
	// every kernel serial, so it is the true serial baseline). Points the
	// host cannot satisfy (p < 4, or p beyond the physical core count)
	// are recorded but not enforced.
	var base1 *scalePoint
	for i := range rep.Scaling {
		if rep.Scaling[i].GoMaxProcs == 1 {
			base1 = &rep.Scaling[i]
		}
	}
	enforced := 0
	for _, sp := range rep.Scaling {
		if sp.GoMaxProcs < 4 || sp.GoMaxProcs > rep.NumCPU {
			continue
		}
		enforced++
		blk, par := findResult(sp.Results, "matmul/blocked"), findResult(sp.Results, "matmul/parallel")
		if blk != nil && par != nil && par.NsPerOp >= blk.NsPerOp {
			fmt.Fprintf(os.Stderr, "engbench: REGRESSION: parallel GEMM %d ns/op is not below blocked %d ns/op at GOMAXPROCS=%d\n",
				par.NsPerOp, blk.NsPerOp, sp.GoMaxProcs)
			os.Exit(1)
		}
		if base1 != nil {
			sser := findResult(base1.Results, "forward/pooled")
			spar := findResult(sp.Results, "forward/pooled")
			if sser != nil && spar != nil && spar.NsPerOp >= sser.NsPerOp {
				fmt.Fprintf(os.Stderr, "engbench: REGRESSION: parallel forward %d ns/op at GOMAXPROCS=%d is not below serial forward %d ns/op at GOMAXPROCS=1\n",
					spar.NsPerOp, sp.GoMaxProcs, sser.NsPerOp)
				os.Exit(1)
			}
		}
	}
	if len(procs) > 0 && enforced == 0 {
		fmt.Fprintf(os.Stderr, "engbench: scaling gate WAIVED: host has %d CPUs; no swept point satisfies 4 <= p <= NumCPU (curve recorded, not enforced)\n",
			rep.NumCPU)
	}
}

// findResult returns the named result from a sweep point, nil if absent.
func findResult(rs []result, name string) *result {
	for i := range rs {
		if rs[i].Name == name {
			return &rs[i]
		}
	}
	return nil
}

// ratio returns before/after as a speedup factor (guarding div-by-zero).
func ratio(before, after int64) float64 {
	if after == 0 {
		return 0
	}
	return float64(before) / float64(after)
}

// reduction returns the fractional drop from before to after allocs.
func reduction(before, after int64) float64 {
	if before == 0 {
		return 0
	}
	return 1 - float64(after)/float64(before)
}
