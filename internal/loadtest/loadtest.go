// Package loadtest is the serving-path analogue of internal/bench: it
// drives a running pbbf server with thousands of concurrent mixed
// hit/miss POST /v1/run requests, measures client-observed latency
// percentiles and error rates, and serializes the result as a
// machine-readable report (LOADTEST.json). CI replays the committed
// workload against a freshly started server and fails the build when the
// tail latency regresses beyond the configured threshold against the
// committed baseline — the serving stack's performance is enforced the
// same way the simulation kernel's is.
package loadtest

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbbf/internal/scenario"
)

// SchemaVersion identifies the report layout. Bump when fields change
// incompatibly; Compare refuses to diff reports with different versions.
const SchemaVersion = 1

// LatencyNoiseFloorNS is the baseline percentile below which Compare
// records but does not gate: a single-digit-millisecond cache-hit
// percentile measures scheduler and loopback jitter, not serving cost.
const LatencyNoiseFloorNS = 5_000_000

// missSeedBase offsets the unique per-miss seeds away from the warm pool
// (seeds 1..WarmSeeds), so a "miss" request can never collide with a
// warmed computation.
const missSeedBase = 1_000_000

// Config parameterizes a load test against a running server.
type Config struct {
	// Target is the base URL of the server (e.g. http://127.0.0.1:8080).
	Target string
	// Experiment and Scale form the request body workload.
	Experiment string
	Scale      string
	// Requests is the measured request count.
	Requests int
	// Concurrency is the number of client workers issuing them.
	Concurrency int
	// HitFraction in [0,1] is the fraction of requests that reuse a seed
	// from the warm pool (store hits); the rest get unique seeds (full
	// computations). The mix is deterministic in the request index.
	HitFraction float64
	// WarmSeeds is the warm pool size; that many distinct seeds are run
	// once, unmeasured, before the clock starts. 0 means 8.
	WarmSeeds int
	// Timeout bounds each request. 0 means 120s.
	Timeout time.Duration
	// Progress, when non-nil, receives a line every few hundred requests.
	Progress io.Writer
}

func (c Config) validated() (Config, error) {
	if c.Target == "" {
		return c, fmt.Errorf("loadtest: missing target URL")
	}
	if c.Experiment == "" {
		return c, fmt.Errorf("loadtest: missing experiment")
	}
	if c.Scale == "" {
		return c, fmt.Errorf("loadtest: missing scale")
	}
	if c.Requests <= 0 {
		return c, fmt.Errorf("loadtest: requests %d must be positive", c.Requests)
	}
	if c.Concurrency <= 0 {
		return c, fmt.Errorf("loadtest: concurrency %d must be positive", c.Concurrency)
	}
	if c.HitFraction < 0 || c.HitFraction > 1 {
		return c, fmt.Errorf("loadtest: hit fraction %v must be in [0,1]", c.HitFraction)
	}
	if c.WarmSeeds == 0 {
		c.WarmSeeds = 8
	}
	if c.WarmSeeds < 0 {
		return c, fmt.Errorf("loadtest: warm seeds %d must be positive", c.WarmSeeds)
	}
	if c.Timeout == 0 {
		c.Timeout = 120 * time.Second
	}
	if c.Timeout < 0 {
		return c, fmt.Errorf("loadtest: timeout %v must be positive", c.Timeout)
	}
	return c, nil
}

// Report is the full load-test record serialized to LOADTEST.json.
// Latencies are client-observed: request start to stream fully drained.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	// CPU and NumCPU describe the recording machine; absolute latencies
	// are only comparable between similar hardware.
	CPU    string `json:"cpu,omitempty"`
	NumCPU int    `json:"num_cpu"`

	// The workload identity — Compare refuses to diff different workloads.
	Experiment  string  `json:"experiment"`
	Scale       string  `json:"scale"`
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	HitFraction float64 `json:"hit_fraction"`
	WarmSeeds   int     `json:"warm_seeds"`

	// Outcome counts. Completed + Errors + Throttled == Requests.
	Completed    int `json:"completed"`
	Errors       int `json:"errors"`
	Throttled    int `json:"throttled"`
	HitRequests  int `json:"hit_requests"`
	MissRequests int `json:"miss_requests"`

	// WallNS is the measured phase's end-to-end time; RPS the completed
	// request throughput over it.
	WallNS int64   `json:"wall_ns"`
	RPS    float64 `json:"rps"`

	// Latency percentiles over completed requests, nanoseconds.
	P50NS  int64 `json:"p50_ns"`
	P95NS  int64 `json:"p95_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
	MeanNS int64 `json:"mean_ns"`
}

// ErrorRate is the fraction of measured requests that failed outright
// (throttled 429s are counted separately — shedding is the server working
// as designed, not an error).
func (r *Report) ErrorRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Requests)
}

// body is the POST /v1/run payload of the request for seed.
func (cfg Config) body(seed uint64) scenario.Identity {
	return scenario.Identity{Experiment: cfg.Experiment, Knobs: scenario.Knobs{Scale: cfg.Scale, Seed: seed}}
}

// outcome classifies one request.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeThrottled
	outcomeError
)

// Run executes the load test and assembles the report. The warm phase
// runs each warm seed once (unmeasured) so the hit portion of the
// workload actually hits; the measured phase then issues cfg.Requests
// requests across cfg.Concurrency workers with a deterministic hit/miss
// mix.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.validated()
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: cfg.Timeout}
	target := strings.TrimSuffix(cfg.Target, "/")

	// Warm phase: populate the store for the hit seeds. Failures here are
	// fatal — a load test against a server that cannot serve the workload
	// at all would report nonsense.
	for seed := 1; seed <= cfg.WarmSeeds; seed++ {
		if out, err := issue(client, target, cfg.body(uint64(seed))); err != nil || out != outcomeOK {
			return nil, fmt.Errorf("loadtest: warm request seed %d failed (outcome %d): %v", seed, out, err)
		}
	}

	rep := &Report{
		SchemaVersion: SchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPU:           cpuModel(),
		NumCPU:        runtime.NumCPU(),
		Experiment:    cfg.Experiment,
		Scale:         cfg.Scale,
		Requests:      cfg.Requests,
		Concurrency:   cfg.Concurrency,
		HitFraction:   cfg.HitFraction,
		WarmSeeds:     cfg.WarmSeeds,
	}

	latencies := make([]int64, cfg.Requests) // indexed by request, 0 = not completed
	outcomes := make([]outcome, cfg.Requests)
	var next atomic.Int64
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= cfg.Requests {
					return
				}
				seed := uint64(missSeedBase + i)
				if isHit(i, cfg.HitFraction) {
					seed = uint64(1 + i%cfg.WarmSeeds)
				}
				t0 := time.Now()
				out, err := issue(client, target, cfg.body(seed))
				if err != nil {
					out = outcomeError
				}
				outcomes[i] = out
				if out == outcomeOK {
					latencies[i] = time.Since(t0).Nanoseconds()
				}
				if n := done.Add(1); cfg.Progress != nil && n%500 == 0 {
					fmt.Fprintf(cfg.Progress, "loadtest: %d/%d requests\n", n, cfg.Requests)
				}
			}
		}()
	}
	wg.Wait()
	rep.WallNS = time.Since(start).Nanoseconds()

	completed := make([]int64, 0, cfg.Requests)
	for i := range latencies {
		switch outcomes[i] {
		case outcomeOK:
			rep.Completed++
			completed = append(completed, latencies[i])
		case outcomeThrottled:
			rep.Throttled++
		case outcomeError:
			rep.Errors++
		}
		if isHit(i, cfg.HitFraction) {
			rep.HitRequests++
		} else {
			rep.MissRequests++
		}
	}
	if rep.Completed == 0 {
		return nil, fmt.Errorf("loadtest: no request completed (%d errors, %d throttled)", rep.Errors, rep.Throttled)
	}
	sort.Slice(completed, func(i, j int) bool { return completed[i] < completed[j] })
	rep.P50NS = percentile(completed, 0.50)
	rep.P95NS = percentile(completed, 0.95)
	rep.P99NS = percentile(completed, 0.99)
	rep.MaxNS = completed[len(completed)-1]
	var sum int64
	for _, l := range completed {
		sum += l
	}
	rep.MeanNS = sum / int64(len(completed))
	rep.RPS = float64(rep.Completed) / (float64(rep.WallNS) / 1e9)
	return rep, nil
}

// isHit is the deterministic hit/miss mix: hits are interleaved evenly at
// rate hitFraction by integer accumulation (request i is a hit iff the
// running hit budget crosses a whole number at i). Deterministic in i, so
// the baseline and the gating run issue the identical workload at any
// request count.
func isHit(i int, hitFraction float64) bool {
	return math.Floor(float64(i+1)*hitFraction) > math.Floor(float64(i)*hitFraction)
}

// issue posts one run request and drains the NDJSON stream to its final
// line. A request only counts as OK when the stream terminates with a
// "done" line — a 200 whose stream ends in an error line is an error.
func issue(client *http.Client, target string, body scenario.Identity) (outcome, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return outcomeError, err
	}
	resp, err := client.Post(target+"/v1/run", "application/json", strings.NewReader(string(payload)))
	if err != nil {
		return outcomeError, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return outcomeThrottled, nil
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return outcomeError, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last string
	for sc.Scan() {
		last = sc.Text()
	}
	if err := sc.Err(); err != nil {
		return outcomeError, err
	}
	if !strings.Contains(last, `"type":"done"`) {
		return outcomeError, fmt.Errorf("stream ended without done line: %s", last)
	}
	return outcomeOK, nil
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// cpuModel returns the processor model string on Linux (best effort;
// empty elsewhere or on read failure).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// WriteFile serializes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a report written by WriteFile.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("loadtest: %s: %w", path, err)
	}
	if r.SchemaVersion == 0 || r.Requests == 0 {
		return nil, fmt.Errorf("loadtest: %s: not a load-test report", path)
	}
	return &r, nil
}

// Regression is one latency percentile that got worse than the baseline
// allows.
type Regression struct {
	// Metric names the gated percentile: "p50" or "p99".
	Metric string `json:"metric"`
	BaseNS int64  `json:"base_ns"`
	CurNS  int64  `json:"cur_ns"`
	// Ratio is Cur/Base (1.30 = 30% worse).
	Ratio float64 `json:"ratio"`
}

// Compare diffs current against base and returns every gated percentile
// that grew by more than threshold (0.30 = fail above +30%). Baselines
// below LatencyNoiseFloorNS are recorded but not gated, mirroring the
// bench gate's noise-floor policy. The workload identities must match —
// comparing different workloads would gate two different jobs.
func Compare(base, current *Report, threshold float64) ([]Regression, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("loadtest: threshold %v must be positive", threshold)
	}
	if base.SchemaVersion != current.SchemaVersion {
		return nil, fmt.Errorf("loadtest: schema mismatch: baseline v%d vs current v%d",
			base.SchemaVersion, current.SchemaVersion)
	}
	switch {
	case base.Experiment != current.Experiment:
		return nil, fmt.Errorf("loadtest: experiment mismatch: baseline %q vs current %q", base.Experiment, current.Experiment)
	case base.Scale != current.Scale:
		return nil, fmt.Errorf("loadtest: scale mismatch: baseline %q vs current %q", base.Scale, current.Scale)
	case base.Requests != current.Requests:
		return nil, fmt.Errorf("loadtest: request-count mismatch: baseline %d vs current %d", base.Requests, current.Requests)
	case base.Concurrency != current.Concurrency:
		return nil, fmt.Errorf("loadtest: concurrency mismatch: baseline %d vs current %d", base.Concurrency, current.Concurrency)
	case base.HitFraction != current.HitFraction:
		return nil, fmt.Errorf("loadtest: hit-fraction mismatch: baseline %v vs current %v", base.HitFraction, current.HitFraction)
	}
	var regs []Regression
	gates := []struct {
		metric string
		b, c   int64
	}{
		{"p50", base.P50NS, current.P50NS},
		{"p99", base.P99NS, current.P99NS},
	}
	for _, g := range gates {
		if g.b < LatencyNoiseFloorNS || g.b == 0 {
			continue
		}
		if ratio := float64(g.c) / float64(g.b); ratio > 1+threshold {
			regs = append(regs, Regression{Metric: g.metric, BaseNS: g.b, CurNS: g.c, Ratio: ratio})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	return regs, nil
}

// CheckErrorRate enforces an absolute error-rate ceiling on a report.
// Like bench.CheckCeilings it needs no baseline: a load test with failing
// requests is broken regardless of how fast the survivors were.
func CheckErrorRate(rep *Report, maxRate float64) error {
	if maxRate < 0 || maxRate >= 1 {
		return fmt.Errorf("loadtest: max error rate %v must be in [0,1)", maxRate)
	}
	if rate := rep.ErrorRate(); rate > maxRate {
		return fmt.Errorf("loadtest: error rate %.4f (%d/%d) exceeds the %.4f ceiling",
			rate, rep.Errors, rep.Requests, maxRate)
	}
	return nil
}

// WaitReady polls the target's /healthz until it answers 200 or the
// context ends — the hand-off between `pbbf serve` starting in the
// background and the load test beginning.
func WaitReady(ctx context.Context, target string) error {
	target = strings.TrimSuffix(target, "/")
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("loadtest: server at %s never became ready: %w", target, ctx.Err())
		case <-time.After(100 * time.Millisecond):
		}
	}
}
