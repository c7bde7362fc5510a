package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"edgebench/internal/stats"
)

// AttackOptions parameterizes a load-generator run against a live
// server — the open-loop counterpart of serving.Simulate, so the
// analytic envelope and the real process can be compared on the same
// axes (rate in, latency quantiles and shed count out).
type AttackOptions struct {
	// Rate is the aggregate request rate in requests/second.
	Rate float64
	// Duration is how long the attack runs.
	Duration time.Duration
	// Burst fires this many simultaneous requests per arrival tick
	// (default 1). Bursts > 1 exercise concurrent dispatch: simultaneous
	// arrivals run on as many replicas as are idle, the rest queue.
	Burst int
	// Seed varies the generated inputs request to request.
	Seed int64
	// DeadlineMs, when positive, attaches a per-request deadline.
	DeadlineMs float64
	// Timeout bounds each HTTP round trip (default 30s).
	Timeout time.Duration
}

// ParseAttack parses the CLI attack spec "rate,duration[,burst]" shared
// by edgeserve and edgepipe. Rate "auto" leaves Rate zero for the
// caller to fill from a measured or simulated service time.
func ParseAttack(s string) (AttackOptions, error) {
	parts := strings.Split(s, ",")
	if len(parts) < 2 || len(parts) > 3 {
		return AttackOptions{}, fmt.Errorf("server: attack spec wants rate,duration[,burst], got %q", s)
	}
	var opts AttackOptions
	if parts[0] != "auto" {
		rate, err := strconv.ParseFloat(parts[0], 64)
		if err != nil || rate <= 0 {
			return opts, fmt.Errorf("server: bad attack rate %q", parts[0])
		}
		opts.Rate = rate
	}
	d, err := time.ParseDuration(parts[1])
	if err != nil || d <= 0 {
		return opts, fmt.Errorf("server: bad attack duration %q", parts[1])
	}
	opts.Duration = d
	opts.Burst = 4
	if len(parts) == 3 {
		b, err := strconv.Atoi(parts[2])
		if err != nil || b < 1 {
			return opts, fmt.Errorf("server: bad attack burst %q", parts[2])
		}
		opts.Burst = b
	}
	return opts, nil
}

// AttackReport summarizes one load-generator run.
type AttackReport struct {
	// Sent is the number of requests issued.
	Sent int
	// OK counts 200s, Shed counts 429s, Deadline counts 504s, and
	// Failed counts transport errors plus every other status.
	OK, Shed, Deadline, Failed int
	// P50, P95, P99 are client-observed latency quantiles in seconds.
	P50, P95, P99 float64
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
}

// String renders the report on one line, mirroring serving.Result.
func (r AttackReport) String() string {
	return fmt.Sprintf("sent %d: ok %d, shed %d, deadline %d, failed %d; p50 %.1fms p95 %.1fms p99 %.1fms",
		r.Sent, r.OK, r.Shed, r.Deadline, r.Failed,
		r.P50*1e3, r.P95*1e3, r.P99*1e3)
}

// Attack drives an open-loop constant-rate load (in bursts of
// opts.Burst) at baseURL's /infer endpoint and reports what came back.
// Open loop means arrivals do not wait for responses — exactly the
// regime where queues grow and admission control matters.
func Attack(baseURL string, opts AttackOptions) (AttackReport, error) {
	if opts.Rate <= 0 || opts.Duration <= 0 {
		return AttackReport{}, fmt.Errorf("server: attack rate and duration must be positive")
	}
	if opts.Burst <= 0 {
		opts.Burst = 1
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	client := &http.Client{
		Timeout: opts.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 256,
		},
	}

	interval := time.Duration(float64(opts.Burst) / opts.Rate * float64(time.Second))
	ticks := int(opts.Duration.Seconds() * opts.Rate / float64(opts.Burst))
	if ticks < 1 {
		ticks = 1
	}

	var (
		mu        sync.Mutex
		rep       AttackReport
		latencies []float64
	)
	var wg sync.WaitGroup
	start := time.Now()
	for tick := 0; tick < ticks; tick++ {
		// Open-loop pacing against absolute time, so slow responses
		// cannot throttle the arrival process.
		time.Sleep(time.Until(start.Add(time.Duration(tick) * interval)))
		for j := 0; j < opts.Burst; j++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				code, err := fire(client, baseURL, opts, id)
				lat := time.Since(start.Add(time.Duration(id/opts.Burst) * interval))
				mu.Lock()
				defer mu.Unlock()
				rep.Sent++
				switch {
				case err != nil:
					rep.Failed++
				case code == http.StatusOK:
					rep.OK++
					latencies = append(latencies, lat.Seconds())
				case code == http.StatusTooManyRequests:
					rep.Shed++
				case code == http.StatusGatewayTimeout:
					rep.Deadline++
				default:
					rep.Failed++
				}
			}(tick*opts.Burst + j)
		}
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		rep.P50 = stats.Percentile(latencies, 50)
		rep.P95 = stats.Percentile(latencies, 95)
		rep.P99 = stats.Percentile(latencies, 99)
	}
	return rep, nil
}

// fire issues one /infer request and returns its status; a 200 whose
// body is not a well-formed response is an error.
func fire(client *http.Client, baseURL string, opts AttackOptions, id int) (int, error) {
	body, err := json.Marshal(InferRequest{
		Seed:       opts.Seed + int64(id),
		DeadlineMs: opts.DeadlineMs,
	})
	if err != nil {
		return 0, err
	}
	resp, err := client.Post(baseURL+"/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out InferResponse
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(&out)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reusable
	return resp.StatusCode, nil
}

// ScrapeMetrics fetches the /metrics endpoint and returns the raw
// exposition text plus a parsed map of un-labeled sample values keyed by
// series name (labels included verbatim in the key).
func ScrapeMetrics(baseURL string) (string, map[string]float64, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return string(raw), nil, fmt.Errorf("server: /metrics returned %d", resp.StatusCode)
	}
	return string(raw), ParseExposition(string(raw)), nil
}

// ParseExposition parses Prometheus text format into a map from series
// (name plus any label set, verbatim) to sample value. Comment and
// malformed lines are skipped — enough parser for smoke assertions, not
// a general client.
func ParseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}
