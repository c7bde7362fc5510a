package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"edgebench/internal/graph"
	"edgebench/internal/model"
	"edgebench/internal/nn"
	"edgebench/internal/opt"
	"edgebench/internal/stats"
	"edgebench/internal/tensor"
)

// The per-layer table (-layers): where one inference's time goes, step
// by step, on this host, against rooflines probed in the same process.
// It runs the graphs the repository benchmark serves, built as the
// benchmark builds them — weight seed 11, opt.O2, int8 where the
// benchmark quantizes — each on one executor of its compiled program
// with Executor.Observe set, at every GOMAXPROCS in layerProcs.

// layerModels are the benchmark's three graphs.
var layerModels = []struct {
	model string
	int8  bool
}{
	{"MobileNet-v2", false},
	{"SqueezeNet", true},
	{"CifarNet", false},
}

const (
	// layerRuns observed forwards, each paired with an unobserved one,
	// per model and GOMAXPROCS: the paper's own amortisation count.
	layerRuns = 30
	// layerWarm untimed forwards run first at each GOMAXPROCS.
	layerWarm = 3
	// layerWeightSeed is the benchmark's weight seed (bench/workload.go).
	layerWeightSeed = 11
	// layerAddUpTol is how far a model's summed step p50s may sit from
	// its forward p50 before the table is refused: a table that does not
	// add up has lost time somewhere it does not show.
	layerAddUpTol = 0.10
	// A table is marked contended when the hypervisor stole more than
	// stealBar of the host's CPU time while it was measured, or its
	// one-core FMUL or copy roof moved by more than driftBar between
	// before and after the timed forwards. It is still written, but its
	// numbers are not comparable with a quiet table's. A co-tenant present
	// for the whole run moves neither roof and still passes: only the
	// roofs themselves, against a quiet table's, show it.
	stealBar = 0.02
	driftBar = 0.10
	// scalingBar is the least a two-core FMUL roof may read as a multiple
	// of the one-core one: two cores of the host's own run the register-
	// only probe at about twice the rate, so a table whose second core
	// was not there while the roofs were probed, which inflates its
	// GOMAXPROCS-2 roof fractions, is marked contended too.
	scalingBar = 1.5
	// vectorScalingBar is the same bar for the eight-lane roof. Its probe
	// keeps the vector ports busy and has scaled less across the two
	// vCPUs than the scalar one, 1.3-2.0x in runs where that read
	// 1.9-2.0x, so its bar is lower.
	vectorScalingBar = 1.25
	// userHZ is the tick /proc/stat counts in: 100 a second, fixed by
	// the Linux ABI.
	userHZ = 100
)

// layerProcs are the GOMAXPROCS values every model is timed at: one core,
// and the two the benchmark's host has.
var layerProcs = []int{1, 2}

type layerTable struct {
	Command string     `json:"command"`
	Host    layerHost  `json:"host"`
	Noise   layerNoise `json:"noise"`
	Runs    int        `json:"runs"`
	Roof    []roofline `json:"roofline"`
	Models  []layerRun `json:"models"`
}

// layerNoise is what the host did besides the table while it was
// measured: the CPU time the hypervisor stole from this VM (the steal
// column of /proc/stat, read only), how far the one-core FMUL and copy
// roofs and the two-core FMUL roof moved from before the timed forwards
// to after them, and how the two-core FMUL roof scales on the one-core
// one; the same for the eight-lane roof where it is probed, and the
// one-core and two-core drifts of the int8 eight-lane roof. The
// register-only FMUL probe does not see a co-tenant that loads the memory
// system; the copy probe does.
type layerNoise struct {
	WallS      float64 `json:"wall_s"`
	StealTicks int64   `json:"steal_ticks"`
	// StealShare is StealTicks over the run's wall ticks on every CPU;
	// -1 when /proc/stat cannot be read.
	StealShare float64 `json:"steal_share"`
	FMULBefore float64 `json:"fmul_before_gmuladd_s"`
	FMULAfter  float64 `json:"fmul_after_gmuladd_s"`
	// Drift is |FMULAfter / FMULBefore - 1|.
	Drift      float64 `json:"fmul_drift"`
	CopyBefore float64 `json:"copy_before_gb_s"`
	CopyAfter  float64 `json:"copy_after_gb_s"`
	// CopyDrift is |CopyAfter / CopyBefore - 1|.
	CopyDrift float64 `json:"copy_drift"`
	// FMUL2Before is the two-core roofline's FMUL, FMUL2After the same
	// probe after the forwards, Drift2 |FMUL2After / FMUL2Before - 1|.
	FMUL2Before float64 `json:"fmul2_before_gmuladd_s"`
	FMUL2After  float64 `json:"fmul2_after_gmuladd_s"`
	Drift2      float64 `json:"fmul2_drift"`
	// Scaling is FMUL2Before / FMULBefore.
	Scaling float64 `json:"fmul2_scaling"`
	// The eight-lane roof's (roofline.FMULVector) one-core and two-core
	// probes before and after the forwards, their drifts and the two-core
	// one's scaling on the one-core one, as for the FMUL roof; all 0 where
	// VectorISA is "".
	VectorBefore  float64 `json:"fmul_vector_before_gmuladd_s"`
	VectorAfter   float64 `json:"fmul_vector_after_gmuladd_s"`
	VectorDrift   float64 `json:"fmul_vector_drift"`
	Vector2Before float64 `json:"fmul_vector2_before_gmuladd_s"`
	Vector2After  float64 `json:"fmul_vector2_after_gmuladd_s"`
	VectorDrift2  float64 `json:"fmul_vector2_drift"`
	VectorScaling float64 `json:"fmul_vector2_scaling"`
	// The int8 eight-lane roof's (roofline.QMACVector) one-core and
	// two-core probes before and after the forwards and their drifts, as
	// for the FMUL roof; all 0 where VectorISA is "".
	QMACBefore  float64 `json:"qmac_vector_before_gmac_s"`
	QMACAfter   float64 `json:"qmac_vector_after_gmac_s"`
	QMACDrift   float64 `json:"qmac_vector_drift"`
	QMAC2Before float64 `json:"qmac_vector2_before_gmac_s"`
	QMAC2After  float64 `json:"qmac_vector2_after_gmac_s"`
	QMACDrift2  float64 `json:"qmac_vector2_drift"`
	Contended   bool    `json:"contended"`
	Bar         string  `json:"contended_bar"`
}

// contended is the verdict the bar gives the noise block's numbers.
func (n layerNoise) contended() bool {
	return n.StealShare > stealBar || n.Drift > driftBar || n.CopyDrift > driftBar ||
		n.Drift2 > driftBar || n.Scaling < scalingBar ||
		n.VectorDrift > driftBar || n.VectorDrift2 > driftBar || (n.VectorBefore > 0 && n.VectorScaling < vectorScalingBar) ||
		n.QMACDrift > driftBar || n.QMACDrift2 > driftBar
}

// drift is |after / before - 1|, 0 for a roof that was not probed.
func drift(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return math.Abs(after/before - 1)
}

type layerHost struct {
	CPU    string `json:"cpu"`
	NumCPU int    `json:"num_cpu"`
	Go     string `json:"go"`
	OS     string `json:"os"`
	Arch   string `json:"arch"`
}

// roofline is what the probes measured at one GOMAXPROCS, with that many
// goroutines running each probe at once.
type roofline struct {
	Procs int `json:"gomaxprocs"`
	// FMUL is FMULChains' rate (Gmuladd/s), the FP32 rows' roof.
	FMUL float64 `json:"fmul_gmuladd_s"`
	// FMULVector is FMULVectorChains' rate (Gmuladd/s, eight lanes), the
	// roof of the FP32 convolutions where they run the vector body
	// (tensor.VectorISA); 0 where they do not.
	FMULVector float64 `json:"fmul_vector_gmuladd_s"`
	// IMUL is IMULChains' rate (Gmul/s); Int8 = IMUL, the roof of the
	// int8 rows on the Go path, whose plain int32 loop retires one MAC
	// per multiply.
	IMUL float64 `json:"imul_gmul_s"`
	Int8 float64 `json:"int8_gmac_s"`
	// QMACVector is QMACVectorChains' rate (GMAC/s, VPMADDWD on eight
	// lanes), the roof of the int8 rows where they run the vector body
	// (every int8 step where VectorISA is not ""); 0 where it is "".
	QMACVector float64 `json:"qmac_vector_gmac_s"`
	// Copy is streaming-copy bandwidth (GB/s, bytes read plus written),
	// the roof of every step that is not a conv or dense kernel.
	Copy float64 `json:"copy_gb_s"`
}

type layerRun struct {
	Model    string       `json:"model"`
	Level    string       `json:"level"`
	DType    string       `json:"dtype"`
	Forwards []forwardRow `json:"forward"`
	Steps    []stepRow    `json:"steps"`
}

// forwardRow is one GOMAXPROCS's unobserved forward time and how far the
// observed steps' p50s add up to it.
type forwardRow struct {
	Procs  int     `json:"gomaxprocs"`
	MinMs  float64 `json:"min_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	StepMs float64 `json:"steps_p50_sum_ms"`
	AddUp  float64 `json:"add_up"`
}

type stepRow struct {
	Step   int     `json:"step"`
	Node   string  `json:"node"`
	Op     string  `json:"op"`
	In     [][]int `json:"in_shapes"`
	Out    []int   `json:"out_shape"`
	Kernel string  `json:"kernel"`
	// MACs is graph.NodeCost's count. BytesIn and BytesOut are what the
	// observer reported the step read and wrote (the engine keeps FP32
	// between layers, int8 graphs included); WeightBytes is the weights
	// the kernel reads in place: an int8 step's codes, else FP32.
	MACs        float64     `json:"macs"`
	BytesIn     int         `json:"bytes_in"`
	BytesOut    int         `json:"bytes_out"`
	WeightBytes int         `json:"weight_bytes"`
	Roof        string      `json:"roof"`
	Timing      []stepTimes `json:"timing"`
}

// stepTimes is one step at one GOMAXPROCS: its time over the observed
// forwards and, at the p50, its rates and the fraction of its roof.
type stepTimes struct {
	Procs    int     `json:"gomaxprocs"`
	MinNs    float64 `json:"min_ns"`
	P50Ns    float64 `json:"p50_ns"`
	P90Ns    float64 `json:"p90_ns"`
	GMACs    float64 `json:"gmac_s"`
	GBs      float64 `json:"gb_s"`
	RoofFrac float64 `json:"roof_frac"`
}

// runLayers measures every layer model, writes the table to path as
// JSON and prints a summary to w. It fails when a model does not add up.
func runLayers(w io.Writer, path string) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	t := layerTable{
		Command: "go run ./cmd/modelzoo -layers " + path,
		Host: layerHost{CPU: cpuModel(), NumCPU: runtime.NumCPU(), Go: runtime.Version(),
			OS: runtime.GOOS, Arch: runtime.GOARCH},
		Runs: layerRuns,
	}
	start := time.Now()
	steal0, stealOK := stealTicks()
	for _, procs := range layerProcs {
		runtime.GOMAXPROCS(procs)
		t.Roof = append(t.Roof, probeRoofline(procs))
	}
	failed := 0
	for _, m := range layerModels {
		r, err := measureModel(m.model, m.int8, t.Roof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "modelzoo:", err)
			return 1
		}
		printLayerRun(w, r)
		for _, f := range r.Forwards {
			if f.AddUp < 1-layerAddUpTol || f.AddUp > 1+layerAddUpTol {
				fmt.Fprintf(w, "FAIL %s at GOMAXPROCS %d: step p50s sum to %.3f of the forward p50, outside ±%.0f%%\n",
					r.Model, f.Procs, f.AddUp, 100*layerAddUpTol)
				failed++
			}
		}
		t.Models = append(t.Models, r)
	}
	if failed > 0 {
		return 1
	}
	var after []roofline
	for _, procs := range layerProcs {
		runtime.GOMAXPROCS(procs)
		after = append(after, probeRoofline(procs))
	}
	t.Noise = layerNoise{WallS: time.Since(start).Seconds(), StealShare: -1,
		FMULBefore: t.Roof[0].FMUL, FMULAfter: after[0].FMUL, CopyBefore: t.Roof[0].Copy, CopyAfter: after[0].Copy,
		FMUL2Before: t.Roof[1].FMUL, FMUL2After: after[1].FMUL,
		VectorBefore: t.Roof[0].FMULVector, VectorAfter: after[0].FMULVector,
		Vector2Before: t.Roof[1].FMULVector, Vector2After: after[1].FMULVector,
		QMACBefore: t.Roof[0].QMACVector, QMACAfter: after[0].QMACVector,
		QMAC2Before: t.Roof[1].QMACVector, QMAC2After: after[1].QMACVector,
		Bar: fmt.Sprintf("steal_share > %.2f or fmul_drift, copy_drift, fmul2_drift, fmul_vector_drift, fmul_vector2_drift, "+
			"qmac_vector_drift or qmac_vector2_drift > %.2f "+
			"or fmul2_scaling < %.1f or fmul_vector2_scaling < %.2f; a co-tenant present for the whole run moves no roof but caps the scaling",
			stealBar, driftBar, scalingBar, vectorScalingBar)}
	if steal1, ok := stealTicks(); ok && stealOK {
		t.Noise.StealTicks = int64(steal1 - steal0)
		t.Noise.StealShare = float64(t.Noise.StealTicks) / (t.Noise.WallS * userHZ * float64(runtime.NumCPU()))
	}
	n := &t.Noise
	n.Drift, n.CopyDrift, n.Drift2 = drift(n.FMULBefore, n.FMULAfter), drift(n.CopyBefore, n.CopyAfter), drift(n.FMUL2Before, n.FMUL2After)
	n.VectorDrift, n.VectorDrift2 = drift(n.VectorBefore, n.VectorAfter), drift(n.Vector2Before, n.Vector2After)
	n.QMACDrift, n.QMACDrift2 = drift(n.QMACBefore, n.QMACAfter), drift(n.QMAC2Before, n.QMAC2After)
	n.Scaling = n.FMUL2Before / n.FMULBefore
	if n.VectorBefore > 0 {
		n.VectorScaling = n.Vector2Before / n.VectorBefore
	}
	n.Contended = n.contended()
	fmt.Fprintf(w, "noise: %d steal ticks in %.1f s (%.2f%% of the CPUs), FMUL roof %.2f → %.2f G/s (drift %.1f%%), "+
		"copy roof %.1f → %.1f GB/s (drift %.1f%%), two-core FMUL roof %.2f → %.2f G/s (drift %.1f%%, %.2fx one core), "+
		"vector roof %.2f → %.2f G/s (drift %.1f%%), two-core vector roof %.2f → %.2f G/s (drift %.1f%%, %.2fx one core), "+
		"int8 vector roof %.2f → %.2f GMAC/s (drift %.1f%%), two-core %.2f → %.2f GMAC/s (drift %.1f%%), contended %v\n",
		n.StealTicks, n.WallS, 100*n.StealShare, n.FMULBefore, n.FMULAfter, 100*n.Drift,
		n.CopyBefore, n.CopyAfter, 100*n.CopyDrift, n.FMUL2Before, n.FMUL2After, 100*n.Drift2, n.Scaling,
		n.VectorBefore, n.VectorAfter, 100*n.VectorDrift, n.Vector2Before, n.Vector2After, 100*n.VectorDrift2, n.VectorScaling,
		n.QMACBefore, n.QMACAfter, 100*n.QMACDrift, n.QMAC2Before, n.QMAC2After, 100*n.QMACDrift2, n.Contended)
	data, err := json.MarshalIndent(t, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "modelzoo:", err)
		return 1
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return 0
}

// buildServed builds a zoo model with weights, as the benchmark serves it.
func buildServed(name string, int8 bool) (*graph.Graph, error) {
	spec, ok := model.Get(name)
	if !ok {
		return nil, fmt.Errorf("no model %q in the zoo", name)
	}
	g := spec.Build(nn.Options{Materialize: true, Seed: layerWeightSeed})
	if _, err := opt.Optimize(g, opt.O2); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if int8 {
		opt.QuantizeINT8(g)
	}
	return g, nil
}

// measureModel times one model's steps and forward at every layerProcs,
// reading each compute step against roofs[i] at layerProcs[i].
func measureModel(name string, int8 bool, roofs []roofline) (layerRun, error) {
	g, err := buildServed(name, int8)
	if err != nil {
		return layerRun{}, err
	}
	p, err := graph.Compile(g)
	if err != nil {
		return layerRun{}, err
	}
	steps := p.Steps()
	r := layerRun{Model: name, Level: "O2", DType: "fp32"}
	if int8 {
		r.DType = "int8"
	}
	for i, s := range steps {
		r.Steps = append(r.Steps, newStepRow(i, s))
	}
	ex := graph.NewExecutors(p, 1)[0]
	in := tensor.New(g.Input.OutShape...).Randomize(stats.NewRNG(1), 1)
	ns := make([][]float64, len(steps))
	ex.Observe = func(i int, _ time.Time, d time.Duration, bytesIn, bytesOut int) {
		ns[i] = append(ns[i], float64(d.Nanoseconds()))
		r.Steps[i].BytesIn, r.Steps[i].BytesOut = bytesIn, bytesOut
	}
	obs := ex.Observe
	for pi, procs := range layerProcs {
		runtime.GOMAXPROCS(procs)
		for i := range ns {
			ns[i] = ns[i][:0]
		}
		ex.Observe = nil
		for k := 0; k < layerWarm; k++ {
			if _, err := ex.Run(g, in); err != nil {
				return layerRun{}, err
			}
		}
		var fwd []float64
		for k := 0; k < layerRuns; k++ {
			ex.Observe = nil
			start := time.Now()
			if _, err := ex.Run(g, in); err != nil {
				return layerRun{}, err
			}
			fwd = append(fwd, float64(time.Since(start).Nanoseconds()))
			ex.Observe = obs
			if _, err := ex.Run(g, in); err != nil {
				return layerRun{}, err
			}
		}
		sum := 0.0
		for i := range r.Steps {
			st := r.Steps[i].times(procs, ns[i], roofs[pi])
			r.Steps[i].Timing = append(r.Steps[i].Timing, st)
			sum += st.P50Ns
		}
		p50 := stats.Median(fwd)
		r.Forwards = append(r.Forwards, forwardRow{Procs: procs, MinMs: stats.Min(fwd) / 1e6, P50Ms: p50 / 1e6,
			P90Ms: stats.Percentile(fwd, 90) / 1e6, StepMs: sum / 1e6, AddUp: sum / p50})
	}
	return r, nil
}

// newStepRow is a step's static facts: what it is and what bind chose.
func newStepRow(i int, s graph.StepInfo) stepRow {
	n := s.Node
	row := stepRow{Step: i, Node: n.Name, Op: n.Kind.String(), Out: n.OutShape, MACs: graph.NodeCost(n).MACs,
		Kernel: kernelFacts(s), Roof: "copy"}
	for _, x := range n.Inputs {
		row.In = append(row.In, x.OutShape)
	}
	switch {
	case s.Int8:
		row.WeightBytes = len(n.QWeights.Data)
	case n.Weights != nil && n.Kind != graph.OpConst:
		row.WeightBytes = 4 * len(n.Weights.Data)
	}
	switch {
	case !s.Compute: // the copy roof, on a vector body or not
	case s.Int8 && vectorStep(s):
		row.Roof = "int8_vector"
	case s.Int8:
		row.Roof = "int8"
	case vectorStep(s):
		row.Roof = "fmul_vector"
	case s.Compute:
		row.Roof = "fmul"
	}
	return row
}

// vectorStep reports whether a step runs on a vector body where the host
// has one: every int8 step (int8 Dense is a 1x1 conv), every FP32 Conv2D,
// grouped ones included (the channel-major microkernel), every depthwise
// step the 3x3 kernel takes, at stride 1 and 2 (tensor.DepthwiseVector),
// and every max-pool tensor.MaxPoolVector takes (its interior; the edge
// columns stay scalar). FP32 dense and every other max-pool do not.
// Only the multiply-add steps among them read against a vector roof.
func vectorStep(s graph.StepInfo) bool {
	n := s.Node
	if tensor.VectorISA() == "" {
		return false
	}
	if n.Kind == graph.OpMaxPool2D {
		in := n.Inputs[0].OutShape
		return tensor.MaxPoolVector(in[1], in[2], tensor.PoolSpec{Kernel: n.Attrs.Kernel, Stride: n.Attrs.Stride, Pad: n.Attrs.Pad})
	}
	if !s.Compute {
		return false
	}
	if s.Int8 {
		return true
	}
	if n.Kind == graph.OpDepthwiseConv2D {
		in, w := n.Inputs[0].OutShape, n.Weights.Shape
		return tensor.DepthwiseVector(in[1], in[2], w[1], w[2], n.Attrs.ConvSpec())
	}
	return n.Kind == graph.OpConv2D
}

// times summarises one step's samples at one GOMAXPROCS.
func (row *stepRow) times(procs int, ns []float64, roof roofline) stepTimes {
	st := stepTimes{Procs: procs, MinNs: stats.Min(ns), P50Ns: stats.Median(ns), P90Ns: stats.Percentile(ns, 90)}
	st.GMACs = row.MACs / st.P50Ns
	st.GBs = float64(row.BytesIn+row.BytesOut+row.WeightBytes) / st.P50Ns
	switch row.Roof {
	case "fmul":
		st.RoofFrac = st.GMACs / roof.FMUL
	case "fmul_vector":
		st.RoofFrac = st.GMACs / roof.FMULVector
	case "int8":
		st.RoofFrac = st.GMACs / roof.Int8
	case "int8_vector":
		st.RoofFrac = st.GMACs / roof.QMACVector
	default:
		st.RoofFrac = st.GBs / roof.Copy
	}
	return st
}

// kernelFacts is a step's bind row as one word list.
func kernelFacts(s graph.StepInfo) string {
	var f []string
	for _, x := range []struct {
		on   bool
		name string
	}{{s.Compute, "compute"}, {s.Int8, "int8"}, {s.Fused, "fused"}, {s.WritesDst, "dst"}} {
		if x.on {
			f = append(f, x.name)
		}
	}
	if vectorStep(s) {
		f = append(f, tensor.VectorISA())
	}
	if len(f) == 0 {
		return "-"
	}
	return strings.Join(f, ",")
}

// printLayerRun writes one model's table, slowest step first per
// GOMAXPROCS, as text.
func printLayerRun(w io.Writer, r layerRun) {
	for pi, f := range r.Forwards {
		fmt.Fprintf(w, "%s %s %s, GOMAXPROCS %d: forward p50 %.3f ms (min %.3f, p90 %.3f), step p50s sum to %.3f ms = %.3f\n",
			r.Model, r.Level, r.DType, f.Procs, f.P50Ms, f.MinMs, f.P90Ms, f.StepMs, f.AddUp)
		fmt.Fprintf(w, "  %4s %-24s %-14s %10s %10s %8s %8s %6s\n", "step", "node", "op", "p50 us", "MMAC", "GMAC/s", "GB/s", "roof")
		for _, s := range r.Steps {
			t := s.Timing[pi]
			fmt.Fprintf(w, "  %4d %-24s %-14s %10.1f %10.2f %8.2f %8.2f %5.0f%%\n",
				s.Step, s.Node, s.Op, t.P50Ns/1e3, s.MACs/1e6, t.GMACs, t.GBs, 100*t.RoofFrac)
		}
	}
}

// probeRoofline runs each probe on procs goroutines at once and reports
// their summed rates; each probe is taken as its best of five.
func probeRoofline(procs int) roofline {
	const chainSteps = 1 << 22 // about 5 ms a call on one core
	r := roofline{Procs: procs}
	r.FMUL = bestRate(procs, tensor.FMULChainsWide*chainSteps, func(int) {
		probeSink.Add(int64(tensor.FMULChains(chainSteps)))
	}) / 1e9
	if tensor.VectorISA() != "" {
		r.FMULVector = bestRate(procs, tensor.FMULVectorWide*chainSteps, func(int) {
			probeSink.Add(int64(tensor.FMULVectorChains(chainSteps)))
		}) / 1e9
	}
	r.IMUL = bestRate(procs, tensor.IMULChainsWide*chainSteps, func(int) {
		probeSink.Add(tensor.IMULChains(chainSteps))
	}) / 1e9
	r.Int8 = r.IMUL
	if tensor.VectorISA() != "" {
		r.QMACVector = bestRate(procs, tensor.QMACVectorWide*chainSteps, func(int) {
			probeSink.Add(int64(tensor.QMACVectorChains(chainSteps)))
		}) / 1e9
	}
	const copyElems = 8 << 20 // 32 MiB a buffer per goroutine
	src, dst := make([][]float32, procs), make([][]float32, procs)
	for i := range src {
		src[i], dst[i] = make([]float32, copyElems), make([]float32, copyElems)
		for j := range src[i] { // untouched pages all map the one zero page
			src[i][j] = float32(j)
		}
	}
	r.Copy = bestRate(procs, 2*4*copyElems, func(i int) { copy(dst[i], src[i]) }) / 1e9
	return r
}

// probeSink keeps the probes' chains live.
var probeSink atomic.Int64

// bestRate runs work(i) on goroutines i = 0..procs-1 at once, five times,
// and returns the best total rate: procs x units over the wall time.
func bestRate(procs int, units float64, work func(i int)) float64 {
	best := 0.0
	for rep := 0; rep < 5; rep++ {
		var wg sync.WaitGroup
		start := time.Now()
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				work(i)
			}(i)
		}
		wg.Wait()
		best = max(best, float64(procs)*units/time.Since(start).Seconds())
	}
	return best
}

// stealTicks is the steal column of /proc/stat's all-CPU line: ticks the
// hypervisor ran something else while this VM had work, since boot.
func stealTicks() (int, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	n, err := strconv.Atoi(f[8])
	return n, err == nil
}

// cpuModel is the host's CPU model name, from /proc/cpuinfo where there
// is one.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// runPlan prints the compiled schedule of one zoo model as the layer
// table serves it (O2, int8 where layerModels quantizes it, else FP32):
// the steps every run walks, with what bind chose.
func runPlan(w io.Writer, name string) int {
	int8 := false
	for _, m := range layerModels {
		if m.model == name {
			int8 = m.int8
		}
	}
	g, err := buildServed(name, int8)
	if err == nil {
		var p *graph.Program
		if p, err = graph.Compile(g); err == nil {
			printPlan(w, g, p.Steps())
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "modelzoo:", err)
	return 1
}

// printPlan writes the schedule, one line per step, then a footer: the
// weight bytes the graph holds, FP32 Weights and int8 codes, which every
// kernel reads in place.
func printPlan(w io.Writer, g *graph.Graph, steps []graph.StepInfo) {
	fmt.Fprintf(w, "%s: %d steps (value numbers index the graph's nodes; slot -1 is a fresh tensor)\n", g.Name, len(steps))
	fmt.Fprintf(w, "%4s %-24s %-14s %-16s %5s %4s %-12s %-12s %s\n", "step", "node", "op", "out", "value", "slot", "in", "free", "kernel")
	for i, s := range steps {
		fmt.Fprintf(w, "%4d %-24s %-14s %-16v %5d %4d %-12s %-12s %s\n", i, s.Node.Name, s.Node.Kind, s.Node.OutShape,
			s.Out, s.Slot, fmt.Sprint(s.In), fmt.Sprint(s.Free), kernelFacts(s))
	}
	fp32, codes := 0, 0
	for _, n := range g.Nodes {
		if n.Weights != nil {
			fp32 += 4 * len(n.Weights.Data)
		}
		if n.QWeights != nil {
			codes += len(n.QWeights.Data)
		}
	}
	fmt.Fprintf(w, "graph weights: FP32 %d B, int8 codes %d B\n", fp32, codes)
}
