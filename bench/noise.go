package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// manifest is the part of BENCHMARK.json the self-check needs.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is what the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// noiseCheck runs every workload as two alternating sets of n fresh
// processes of this binary (seeds 1..n in both sets) and applies the
// driver's acceptance rule to the end-to-end metrics: within a set the
// interquartile distance over the median must stay inside the bound
// (setup_s excepted), and the two sets' medians may not differ by more
// than the bound. A spread over a third of the bound fails too: that is
// the margin the bounds are sized with. It returns the process exit code.
func noiseCheck(n, seconds int) int {
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -noise needs at least 2 runs per set")
		return 2
	}
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: run -noise from the repository root:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(hostFingerprint())
	// One value per run, by workload, metric and set.
	type series struct {
		workload, metric string
		set              int
	}
	samples := map[series][]float64{}
	for seed := 1; seed <= n; seed++ {
		for _, w := range m.Workloads {
			for set := 0; set < 2; set++ {
				res, err := runChild(self, w.Name, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
					return 1
				}
				for name, mv := range res.Metrics {
					k := series{w.Name, name, set}
					samples[k] = append(samples[k], mv.Value)
				}
				fmt.Fprintf(os.Stderr, "noise: seed %d/%d %s set %c done\n", seed, n, w.Name, 'A'+set)
			}
		}
	}

	fmt.Printf("\nnoise self-check: 2 sets x %d runs, --seconds %d (spread = (Q3-Q1)/median within a set; diff = |median B - median A| / median A)\n\n", n, seconds)
	fmt.Println("| workload | metric | median A | median B | diff | spread A | spread B | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range m.Workloads {
		for _, e := range m.EndToEnd {
			a, b := samples[series{w.Name, e.Name, 0}], samples[series{w.Name, e.Name, 1}]
			if len(a) != n || len(b) != n {
				fmt.Fprintf(os.Stderr, "bench: %s did not report %s on every run\n", w.Name, e.Name)
				return 1
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			diff := math.Abs(b2-a2) / a2
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			switch spread := max(spreadA, spreadB); {
			case diff > e.Bound:
				verdict = "FAIL: medians differ"
			case e.Name != "setup_s" && spread > e.Bound:
				verdict = "FAIL: spread over bound"
			case e.Name != "setup_s" && spread > e.Bound/3:
				verdict = "FAIL: spread over bound/3"
			}
			if verdict != "ok" {
				bad++
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %.2f%% | %.2f%% | %.2f%% | %.0f%% | %s |\n",
				w.Name, e.Name, a2, b2, diff*100, spreadA*100, spreadB*100, e.Bound*100, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d metric(s) outside their bound or its margin\n", bad)
		return 1
	}
	return 0
}

// runChild runs one untraced run in a fresh process, as the driver does,
// and parses the result line.
func runChild(self, workload string, seed, seconds int) (result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("%d of %d outputs unverified", res.Failed, res.Attempted)
	}
	return res, nil
}
