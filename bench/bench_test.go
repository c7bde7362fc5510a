package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"edgebench/internal/server"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{50, 10, 40, 20, 30, 60, 100, 90, 70, 80}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {100, 100}, {10, 10}, {1, 10},
	} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if v[0] != 50 {
		t.Error("percentile reordered its argument")
	}
}

// The values are Python's: statistics.quantiles(range(1, 11), n=4) and
// statistics.quantiles([3, 1, 2], n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(3,1,2) = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// An op that errors, an op the server refuses, and an op whose reference
// is corrupted must each count as exactly one failure.
func TestFailAccounting(t *testing.T) {
	want := []float32{1, 2, 3}
	var served atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 3 {
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		_ = json.NewEncoder(w).Encode(server.InferResponse{Output: want})
	}))
	defer ts.Close()

	w, _ := findWorkload("serve-cifar-mixed")
	tg := &target{w: w, url: ts.URL, clients: []*http.Client{ts.Client()}}
	post, err := tg.opFunc(makeInputs([]int{2}, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([][]float32, numInputs)
	for k := range refs {
		refs[k] = want
	}
	refs[5] = []float32{1, 2, float32(math.Nextafter32(3, 4))}
	res := runLoad(loadSpec{
		ops:     numInputs,
		clients: 1,
		refs:    refs,
		maxWall: time.Minute,
		do: func(c, op int) ([]float32, error) {
			if op == 9 {
				return nil, errors.New("engine closed")
			}
			return post(c, op)
		},
	})
	if res.attempted != numInputs || len(res.latMs) != numInputs {
		t.Errorf("attempted %d with %d samples, want %d", res.attempted, len(res.latMs), numInputs)
	}
	if res.failed != 3 {
		t.Errorf("failed = %d, want 3 (one error, one 429, one corrupted reference)", res.failed)
	}
	r := newResult(endToEnd, map[string]float64{}, res.attempted, res.failed)
	if r.Correct {
		t.Error("a run with failures reported correct")
	}
}

func TestLoadStopsAtMaxWall(t *testing.T) {
	res := runLoad(loadSpec{
		ops: 1000, clients: 2, refs: [][]float32{nil}, maxWall: 20 * time.Millisecond,
		do: func(int, int) ([]float32, error) { time.Sleep(5 * time.Millisecond); return nil, nil },
	})
	if res.attempted == 0 || res.attempted >= 1000 {
		t.Errorf("attempted %d ops, want the loop cut short", res.attempted)
	}
	if res.failed != 0 {
		t.Errorf("ops never attempted were counted as %d failures", res.failed)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesCode holds BENCHMARK.json and the code to the same
// workloads, metrics, units and run length.
func TestManifestMatchesCode(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in code", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit || !nameRE.MatchString(e.Name) {
			t.Errorf("end_to_end %d: %s [%s] in BENCHMARK.json, %s [%s] in code", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in code", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		if e.Name != perLayer[i].name || e.Unit != perLayer[i].unit || !nameRE.MatchString(e.Name) {
			t.Errorf("per_layer %d: %s [%s] in BENCHMARK.json, %s [%s] in code", i, e.Name, e.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestSmoke runs every workload's untraced and traced run at a few ops.
// The stream workloads keep their path and datatype but take CifarNet, so
// the test stays under ten seconds; TestRealModels covers their own graphs.
func TestSmoke(t *testing.T) {
	prev := runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	defer runtime.GOMAXPROCS(prev)
	for _, w := range workloads {
		w.model = "CifarNet"
		t.Run(w.name, func(t *testing.T) {
			cfg := config{seed: 1, seconds: 5, procs: runtime.GOMAXPROCS(0), outDir: t.TempDir(), ops: 4, setupReps: 1}
			res, err := runEndToEnd(&w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd, 4+warmOps)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}

			cfg.ops = 2
			res, err = runTraced(&w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer, 2*(2+warmOps))
			checkSpans(t, cfg.outDir+"/trace-"+w.name+".json", w.childSpan())
		})
	}
}

// TestRealModels covers what TestSmoke's swap to CifarNet leaves out: the
// stream workloads' own graphs, one verified op each, the exact kernel
// dispatch counts per op, and the probe families each graph yields.
func TestRealModels(t *testing.T) {
	prev := runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	defer runtime.GOMAXPROCS(prev)
	for _, c := range []struct {
		workload          string
		fp32, int8, fused int64
		probes            []string
	}{
		{"stream-mbv2-fp32", 53, 0, 52, []string{"tensor.pw_conv_gmacs", "tensor.dw_conv_gmacs", "tensor.kxk_conv_gmacs", "tensor.dense_gmacs"}},
		{"stream-squeeze-int8", 0, 26, 26, []string{"tensor.q_pw_conv_gmacs", "tensor.q_kxk_conv_gmacs"}},
	} {
		t.Run(c.workload, func(t *testing.T) {
			w, ok := findWorkload(c.workload)
			if !ok {
				t.Fatal("no such workload")
			}
			tg, err := setUp(w, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer tg.close()
			in := makeInputs(tg.inputShape(), 1)
			in.seeds, in.tensors = in.seeds[:1], in.tensors[:1]
			refs, _, err := tg.references(in)
			if err != nil {
				t.Fatal(err)
			}
			int8a, fp32a, fuseda := tg.eng.DispatchCounts()
			out, err := tg.eng.Infer(in.tensors[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bitEqual(out.Data, refs[0]) {
				t.Error("engine output differs from the reference executor's")
			}
			int8b, fp32b, fusedb := tg.eng.DispatchCounts()
			if fp32b-fp32a != c.fp32 || int8b-int8a != c.int8 || fusedb-fuseda != c.fused {
				t.Errorf("dispatches per op fp32/int8/fused = %d/%d/%d, want %d/%d/%d",
					fp32b-fp32a, int8b-int8a, fusedb-fuseda, c.fp32, c.int8, c.fused)
			}
			v := map[string]float64{}
			if err := kernelProbes(tg.g, v); err != nil {
				t.Fatal(err)
			}
			if len(v) != len(c.probes) {
				t.Errorf("probes %v, want exactly %v", v, c.probes)
			}
			for _, name := range c.probes {
				if v[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, v[name])
				}
			}
		})
	}
}

func checkResult(t *testing.T, res result, defs []metricDef, attempted int) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted != attempted {
		t.Errorf("correct=%v attempted=%d failed=%d, want true %d 0", res.Correct, res.Attempted, res.Failed, attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		mv, ok := res.Metrics[d.name]
		if !ok || mv.Unit != d.unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("metric %s: %+v (present %v), want a finite value in %s", d.name, mv, ok, d.unit)
		}
	}
}

func checkSpans(t *testing.T, path, child string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for i, s := range spans {
		names[s.Name]++
		if !nameRE.MatchString(s.Name) || s.EndNs < s.StartNs {
			t.Errorf("span %d %+v: bad name or interval", i, s)
		}
		if s.Parent == noParent {
			continue
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Req != p.Req {
			t.Errorf("span %d %+v lies outside its parent %+v", i, s, p)
		}
	}
	if names["setup"] != 1 || names["request"] != 2 || names[child] != 2 || names["verify.check"] != 1 {
		t.Errorf("span counts %v: want 1 setup, 2 request, 2 %s, 1 verify.check", names, child)
	}
	self := selfNs(spans)
	for i, s := range spans {
		if self[i] < 0 {
			t.Errorf("span %d %s has self time %d ns", i, s.Name, self[i])
		}
		// Set-up is a chain of layer calls: its own time is the glue
		// between them, and must stay a small share.
		if s.Name == "setup" && float64(self[i]) > 0.1*float64(s.EndNs-s.StartNs) {
			t.Errorf("setup children cover %d of %d ns, want within 10%%", s.EndNs-s.StartNs-self[i], s.EndNs-s.StartNs)
		}
	}
}
