// Package bench is the repository's performance-tracking subsystem: it runs
// every registered scenario at the frozen bench scale, measures wall time,
// per-point cost, allocations, and simulator events fired, and serializes
// the result as a machine-readable report (BENCH.json). CI records the
// report as an artifact on every push and fails the build when a scenario
// regresses more than the configured threshold against the committed
// baseline, so the perf trajectory of the hot paths is visible — and
// enforced — over the repository's history.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"pbbf/internal/scenario"
	"pbbf/internal/sim"
	"pbbf/internal/trace"
)

// SchemaVersion identifies the report layout. Bump when fields change
// incompatibly; Compare refuses to diff reports with different versions.
// v2 added AllocsPerPoint and the allocation gate.
const SchemaVersion = 2

// NoiseFloorNS is the baseline wall time below which Compare records a
// scenario but does not gate it: sub-millisecond artifacts (the static
// tables) measure timer and scheduler noise, not simulator performance.
const NoiseFloorNS = 2_000_000

// AllocNoiseFloor is the baseline allocs-per-point below which Compare
// records but does not gate the allocation ratio: when a point costs a few
// hundred allocations, one stray runtime allocation (a timer, a map bucket
// split) swings the ratio past any reasonable threshold without meaning
// anything. Pooled scenarios sit far below this floor and are protected by
// the absolute FlagshipAllocCeiling instead.
const AllocNoiseFloor = 512

// FlagshipAllocCeiling is the absolute allocs-per-point budget for the
// flagship scenarios at the frozen bench scale. The pooled netsim and
// idealsim engines run steady-state points in a few dozen allocations
// (grid, accumulator maps and result assembly; the simulation itself is
// allocation-free), so the ceiling failing means per-run state is being
// reallocated again.
const FlagshipAllocCeiling = 100

// FlagshipScenarios lists the scenario IDs held to FlagshipAllocCeiling:
// the ns-style simulator figures whose hot path the arena layer keeps
// allocation-free, then the ideal-MAC figures and extensions, whose
// points run on a sweep worker's pooled idealsim.Pool.
var FlagshipScenarios = []string{
	"fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	"fig4", "fig5", "fig8", "fig9", "fig10", "fig11", "extwakeup", "exttmac",
}

// DefaultRepeats is how many times Run measures each scenario when
// Config.Repeats is unset; the fastest repeat is recorded. Minimum-of-N is
// the standard defense against one-off scheduler hiccups inflating a
// measurement into a phantom regression.
const DefaultRepeats = 3

// ScenarioResult is one scenario's measurement.
type ScenarioResult struct {
	// ID is the scenario's registry handle.
	ID string `json:"id"`
	// Artifact is the paper artifact the scenario regenerates.
	Artifact string `json:"artifact"`
	// Points is the number of parameter points the run produced (1 for
	// table scenarios).
	Points int `json:"points"`
	// WallNS is the scenario's wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// NSPerPoint is WallNS divided by Points — the regression metric.
	NSPerPoint int64 `json:"ns_per_point"`
	// Allocs counts heap allocations during the run.
	Allocs uint64 `json:"allocs"`
	// AllocsPerPoint is the minimum allocations-per-point seen across the
	// repeats — the allocation analogue of NSPerPoint. It is tracked
	// independently of the fastest repeat: the work is deterministic, so the
	// repeat with the fewest allocations is the one least polluted by
	// runtime background activity.
	AllocsPerPoint uint64 `json:"allocs_per_point"`
	// AllocBytes counts bytes allocated during the run.
	AllocBytes uint64 `json:"alloc_bytes"`
	// EventsFired counts discrete-event kernel events executed during the
	// run (0 for analytic scenarios that never touch a kernel).
	EventsFired uint64 `json:"events_fired"`
}

// Report is the full benchmark record serialized to BENCH.json.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	// CPU is the best-effort processor model of the recording machine and
	// NumCPU its logical core count. Absolute times are only comparable
	// between reports from similar hardware; these fields make a mismatch
	// diagnosable from the two files alone.
	CPU    string `json:"cpu,omitempty"`
	NumCPU int    `json:"num_cpu"`
	// Scale names the scenario scale the benchmark ran at.
	Scale string `json:"scale"`
	// Workers is the sweep worker-pool size used for every scenario.
	Workers int `json:"workers"`
	// Seed is the root seed (measurements must be reproducible).
	Seed uint64 `json:"seed"`
	// TotalWallNS is the end-to-end wall time across all scenarios.
	TotalWallNS int64            `json:"total_wall_ns"`
	Scenarios   []ScenarioResult `json:"scenarios"`
}

// Config parameterizes a benchmark run.
type Config struct {
	// Scale is the scenario scale to run at.
	Scale scenario.Scale
	// ScaleName labels the scale in the report.
	ScaleName string
	// Workers sizes the sweep pool per scenario. 1 (the default used by
	// the CLI) keeps timings and allocation counts scheduler-independent.
	Workers int
	// Repeats is how many times each scenario is measured; the fastest
	// repeat is recorded. 0 means DefaultRepeats.
	Repeats int
	// Progress, when non-nil, receives one line per finished scenario.
	Progress io.Writer
	// TraceProvider, when non-nil, attaches the event recorder to every
	// simulation run — the trace overhead gate: benchmarking with
	// trace.DiscardProvider against an untraced baseline bounds the cost
	// of full instrumentation. nil (the default) measures untraced runs.
	TraceProvider trace.Provider
}

// Run benchmarks every scenario in the registry sequentially and returns
// the report. Scenarios run one at a time — never concurrently with each
// other — so per-scenario wall time, allocation deltas, and event counts
// are attributable.
func Run(scenarios []scenario.Scenario, cfg Config) (*Report, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("bench: workers %d must be positive", cfg.Workers)
	}
	if cfg.Repeats == 0 {
		cfg.Repeats = DefaultRepeats
	}
	if cfg.Repeats < 0 {
		return nil, fmt.Errorf("bench: repeats %d must be positive", cfg.Repeats)
	}
	if err := cfg.Scale.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{
		SchemaVersion: SchemaVersion,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPU:           cpuModel(),
		NumCPU:        runtime.NumCPU(),
		Scale:         cfg.ScaleName,
		Workers:       cfg.Workers,
		Seed:          cfg.Scale.Seed,
		Scenarios:     make([]ScenarioResult, 0, len(scenarios)),
	}
	ctx := context.Background()
	if cfg.TraceProvider != nil {
		ctx = trace.WithProvider(ctx, cfg.TraceProvider)
	}
	var ms0, ms1 runtime.MemStats
	total := time.Now()
	for _, sc := range scenarios {
		// Measure Repeats times and keep the fastest: the work is
		// deterministic (fixed seed), so the minimum is the cleanest
		// estimate of the scenario's cost and is robust against one
		// repeat landing on a busy moment.
		var res ScenarioResult
		var minAllocs uint64
		for try := 0; try < cfg.Repeats; try++ {
			runtime.GC() // attribute floating garbage to this measurement
			runtime.ReadMemStats(&ms0)
			fired0 := sim.TotalFired()
			start := time.Now()
			outs, err := scenario.RunAllCtx(ctx, []scenario.Scenario{sc}, cfg.Scale,
				scenario.RunOptions{Workers: cfg.Workers})
			wall := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", sc.ID, err)
			}
			runtime.ReadMemStats(&ms1)
			points := len(outs[0].Points)
			if points == 0 {
				points = 1 // TableFn scenarios: one unit of work
			}
			// The allocation minimum is tracked across all repeats, not
			// taken from the fastest one: the repeat with the fewest
			// allocations is the one least polluted by runtime background
			// work, and it need not be the fastest.
			if allocs := ms1.Mallocs - ms0.Mallocs; try == 0 || allocs < minAllocs {
				minAllocs = allocs
			}
			if try > 0 && wall.Nanoseconds() >= res.WallNS {
				continue
			}
			res = ScenarioResult{
				ID:          sc.ID,
				Artifact:    sc.Artifact,
				Points:      points,
				WallNS:      wall.Nanoseconds(),
				NSPerPoint:  wall.Nanoseconds() / int64(points),
				Allocs:      ms1.Mallocs - ms0.Mallocs,
				AllocBytes:  ms1.TotalAlloc - ms0.TotalAlloc,
				EventsFired: sim.TotalFired() - fired0,
			}
		}
		res.AllocsPerPoint = minAllocs / uint64(res.Points)
		rep.Scenarios = append(rep.Scenarios, res)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-12s %10.2fms %8d pts %12d ns/pt %8d allocs/pt %12d events\n",
				res.ID, float64(res.WallNS)/1e6, res.Points, res.NSPerPoint, res.AllocsPerPoint, res.EventsFired)
		}
	}
	rep.TotalWallNS = time.Since(total).Nanoseconds()
	return rep, nil
}

// OverheadResult is one scenario's paired traced-vs-untraced measurement
// from RunOverhead.
type OverheadResult struct {
	// ID is the scenario's registry handle.
	ID string `json:"id"`
	// Points is the number of parameter points per run.
	Points int `json:"points"`
	// UntracedNSPerPoint and TracedNSPerPoint are each arm's fastest
	// repeat.
	UntracedNSPerPoint int64 `json:"untraced_ns_per_point"`
	TracedNSPerPoint   int64 `json:"traced_ns_per_point"`
	// Ratio is Traced/Untraced (1.10 = full instrumentation costs 10%).
	Ratio float64 `json:"ratio"`
	// Gated is false when the untraced arm sits under NoiseFloorNS —
	// recorded for the report, excluded from the gate.
	Gated bool `json:"gated"`
}

// OverheadReport is the machine-readable record of a RunOverhead pass.
type OverheadReport struct {
	SchemaVersion int              `json:"schema_version"`
	Scale         string           `json:"scale"`
	Workers       int              `json:"workers"`
	Seed          uint64           `json:"seed"`
	Repeats       int              `json:"repeats"`
	Results       []OverheadResult `json:"results"`
}

// WriteFile serializes the overhead report as indented JSON.
func (r *OverheadReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunOverhead measures the cost of full event instrumentation: each
// scenario runs Repeats untraced/traced pairs — the traced arm records
// every event into trace.Discard — alternating within this one process,
// and each arm keeps its fastest repeat. Pairing the arms back to back
// cancels the machine drift (thermal state, background load, build
// cache) that makes two separate bench invocations incomparable, so the
// ratio can be gated far inside the cross-invocation noise floor.
// Config.TraceProvider is ignored; the arms define their own.
func RunOverhead(scenarios []scenario.Scenario, cfg Config) (*OverheadReport, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("bench: workers %d must be positive", cfg.Workers)
	}
	if cfg.Repeats == 0 {
		cfg.Repeats = DefaultRepeats
	}
	if cfg.Repeats < 0 {
		return nil, fmt.Errorf("bench: repeats %d must be positive", cfg.Repeats)
	}
	if err := cfg.Scale.Validate(); err != nil {
		return nil, err
	}
	rep := &OverheadReport{
		SchemaVersion: SchemaVersion,
		Scale:         cfg.ScaleName,
		Workers:       cfg.Workers,
		Seed:          cfg.Scale.Seed,
		Repeats:       cfg.Repeats,
		Results:       make([]OverheadResult, 0, len(scenarios)),
	}
	plain := context.Background()
	traced := trace.WithProvider(context.Background(), trace.DiscardProvider)
	for _, sc := range scenarios {
		var res OverheadResult
		for try := 0; try < cfg.Repeats; try++ {
			pWall, points, err := measureOnce(plain, sc, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", sc.ID, err)
			}
			tWall, _, err := measureOnce(traced, sc, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: %s (traced): %w", sc.ID, err)
			}
			if try == 0 {
				res = OverheadResult{ID: sc.ID, Points: points,
					UntracedNSPerPoint: pWall, TracedNSPerPoint: tWall}
			} else {
				res.UntracedNSPerPoint = min(res.UntracedNSPerPoint, pWall)
				res.TracedNSPerPoint = min(res.TracedNSPerPoint, tWall)
			}
		}
		// The fields hold total wall until here; the noise floor is a
		// wall-time bound, same as Compare's.
		res.Gated = res.UntracedNSPerPoint >= NoiseFloorNS
		res.UntracedNSPerPoint /= int64(res.Points)
		res.TracedNSPerPoint /= int64(res.Points)
		if res.UntracedNSPerPoint > 0 {
			res.Ratio = float64(res.TracedNSPerPoint) / float64(res.UntracedNSPerPoint)
		}
		rep.Results = append(rep.Results, res)
		if cfg.Progress != nil {
			fmt.Fprintf(cfg.Progress, "%-12s %12d ns/pt untraced %12d ns/pt traced %6.2fx\n",
				res.ID, res.UntracedNSPerPoint, res.TracedNSPerPoint, res.Ratio)
		}
	}
	return rep, nil
}

// measureOnce runs one scenario once under ctx and returns its total wall
// time in nanoseconds and point count (1 for table scenarios).
func measureOnce(ctx context.Context, sc scenario.Scenario, cfg Config) (int64, int, error) {
	runtime.GC() // attribute floating garbage consistently across arms
	start := time.Now()
	outs, err := scenario.RunAllCtx(ctx, []scenario.Scenario{sc}, cfg.Scale,
		scenario.RunOptions{Workers: cfg.Workers})
	wall := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	points := len(outs[0].Points)
	if points == 0 {
		points = 1 // TableFn scenarios: one unit of work
	}
	return wall.Nanoseconds(), points, nil
}

// cpuModel returns the processor model string on Linux (best effort; empty
// elsewhere or on read failure).
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
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	if r.SchemaVersion == 0 || len(r.Scenarios) == 0 {
		return nil, fmt.Errorf("bench: %s: not a benchmark report", path)
	}
	return &r, nil
}

// Regression is one scenario metric that got worse than the baseline
// allows. Metric says which gate fired: "ns/point" (wall time) or
// "allocs/point" (allocation count).
type Regression struct {
	ID string `json:"id"`
	// Metric names the gated measurement: "ns/point" or "allocs/point".
	Metric string `json:"metric"`
	// BaseNSPerPoint and CurNSPerPoint are the compared wall measurements
	// (zero for allocation regressions).
	BaseNSPerPoint int64 `json:"base_ns_per_point,omitempty"`
	CurNSPerPoint  int64 `json:"cur_ns_per_point,omitempty"`
	// BaseAllocsPerPoint and CurAllocsPerPoint are the compared allocation
	// measurements (zero for wall-time regressions).
	BaseAllocsPerPoint uint64 `json:"base_allocs_per_point,omitempty"`
	CurAllocsPerPoint  uint64 `json:"cur_allocs_per_point,omitempty"`
	// Ratio is Cur/Base (1.30 = 30% worse).
	Ratio float64 `json:"ratio"`
}

// Compare diffs current against base and returns every scenario whose
// ns/point or allocs/point grew by more than threshold (0.30 = fail above
// +30%). Each metric has its own noise floor (NoiseFloorNS,
// AllocNoiseFloor) below which the baseline is recorded but not gated.
// Scenarios present in the baseline but missing from the current run are
// reported as regressions with Ratio 0 — a silently dropped benchmark must
// not pass. New scenarios absent from the baseline are ignored.
func Compare(base, current *Report, threshold float64) ([]Regression, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("bench: threshold %v must be positive", threshold)
	}
	if base.SchemaVersion != current.SchemaVersion {
		return nil, fmt.Errorf("bench: schema mismatch: baseline v%d vs current v%d",
			base.SchemaVersion, current.SchemaVersion)
	}
	// ns/point is only meaningful between runs of the same workload: a
	// scale, worker, or seed mismatch would gate two different jobs.
	if base.Scale != current.Scale {
		return nil, fmt.Errorf("bench: scale mismatch: baseline %q vs current %q", base.Scale, current.Scale)
	}
	if base.Workers != current.Workers {
		return nil, fmt.Errorf("bench: workers mismatch: baseline %d vs current %d", base.Workers, current.Workers)
	}
	if base.Seed != current.Seed {
		return nil, fmt.Errorf("bench: seed mismatch: baseline %d vs current %d", base.Seed, current.Seed)
	}
	cur := make(map[string]ScenarioResult, len(current.Scenarios))
	for _, s := range current.Scenarios {
		cur[s.ID] = s
	}
	var regs []Regression
	for _, b := range base.Scenarios {
		c, ok := cur[b.ID]
		if !ok {
			regs = append(regs, Regression{ID: b.ID, Metric: "ns/point", BaseNSPerPoint: b.NSPerPoint})
			continue
		}
		if b.NSPerPoint > 0 && b.WallNS >= NoiseFloorNS {
			if ratio := float64(c.NSPerPoint) / float64(b.NSPerPoint); ratio > 1+threshold {
				regs = append(regs, Regression{
					ID:             b.ID,
					Metric:         "ns/point",
					BaseNSPerPoint: b.NSPerPoint,
					CurNSPerPoint:  c.NSPerPoint,
					Ratio:          ratio,
				})
			}
		}
		if b.AllocsPerPoint >= AllocNoiseFloor {
			if ratio := float64(c.AllocsPerPoint) / float64(b.AllocsPerPoint); ratio > 1+threshold {
				regs = append(regs, Regression{
					ID:                 b.ID,
					Metric:             "allocs/point",
					BaseAllocsPerPoint: b.AllocsPerPoint,
					CurAllocsPerPoint:  c.AllocsPerPoint,
					Ratio:              ratio,
				})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	return regs, nil
}

// CeilingViolation is one flagship scenario over its absolute allocation
// budget — or missing from the report entirely (AllocsPerPoint 0, Missing
// true), which must fail for the same reason a dropped benchmark does.
type CeilingViolation struct {
	ID             string `json:"id"`
	AllocsPerPoint uint64 `json:"allocs_per_point"`
	Ceiling        uint64 `json:"ceiling"`
	Missing        bool   `json:"missing,omitempty"`
}

// CheckCeilings enforces the absolute FlagshipAllocCeiling against a report.
// Unlike Compare it needs no baseline: the ceiling is a property of the
// pooled kernel, not a diff. It applies only to reports recorded at the
// frozen "bench" scale — at other scales points aggregate different run
// counts and the budget would not be comparable.
func CheckCeilings(rep *Report) []CeilingViolation {
	if rep.Scale != "bench" {
		return nil
	}
	byID := make(map[string]ScenarioResult, len(rep.Scenarios))
	for _, s := range rep.Scenarios {
		byID[s.ID] = s
	}
	var out []CeilingViolation
	for _, id := range FlagshipScenarios {
		s, ok := byID[id]
		if !ok {
			out = append(out, CeilingViolation{ID: id, Ceiling: FlagshipAllocCeiling, Missing: true})
			continue
		}
		if s.AllocsPerPoint > FlagshipAllocCeiling {
			out = append(out, CeilingViolation{ID: id, AllocsPerPoint: s.AllocsPerPoint, Ceiling: FlagshipAllocCeiling})
		}
	}
	return out
}
