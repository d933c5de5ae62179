// Package bench is the repository's performance-tracking subsystem: it runs
// every registered scenario at the frozen bench scale and records, per
// scenario, the discrete-event kernel events fired, the heap allocations
// per point, and the wall time, in a machine-readable report (BENCH.json).
// CI gates only what the program determines: a scenario that fires more
// kernel events, or allocates more per point, than the committed baseline
// fails the build. Wall time is reported, never gated: it measures the
// machine as much as the program.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"pbbf/internal/scenario"
	"pbbf/internal/sim"
)

// SchemaVersion identifies the report layout. Bump when fields change
// incompatibly; Compare refuses to diff reports with different versions.
// v2 added AllocsPerPoint and the allocation gate.
const SchemaVersion = 2

// FlagshipAllocCeiling is the absolute allocs-per-point budget for the
// flagship scenarios at the frozen bench scale. The pooled netsim and
// idealsim engines run steady-state points in a few dozen allocations
// (grid, accumulator maps and result assembly; the simulation itself is
// allocation-free), so the ceiling failing means per-run state is being
// reallocated again.
const FlagshipAllocCeiling = 100

// FlagshipScenarios lists the scenario IDs held to FlagshipAllocCeiling:
// the ns-style simulator figures whose hot path the arena layer keeps
// allocation-free, and adaptive PBBF, whose per-node protocol state is
// reset in place on pooled nodes; the churn and battery-depletion
// extensions, whose dead nodes keep their queues' capacity on a warm pool;
// then the ideal-MAC figures and extensions, whose points run on a leased
// pooled idealsim.Pool.
var FlagshipScenarios = []string{
	"fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "extadaptive",
	"extchurn", "extlifetime", "extharvest",
	"fig4", "fig5", "fig8", "fig9", "fig10", "fig11", "extwakeup", "exttmac",
}

// repeats is how many times Run measures each scenario; the fastest repeat
// gives the reported wall time. Minimum-of-N keeps one-off scheduler
// hiccups out of it.
const repeats = 3

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
	// NSPerPoint is WallNS divided by Points. Like WallNS it is reported,
	// not gated.
	NSPerPoint int64 `json:"ns_per_point"`
	// Allocs counts heap allocations during the run.
	Allocs uint64 `json:"allocs"`
	// AllocsPerPoint is the minimum allocations-per-point seen across the
	// repeats. At one worker every repeat counts the same (see measure), so
	// Compare gates it with no tolerance; with more workers the goroutines'
	// placement on processors moves it by a few, and the minimum is the
	// repeat least touched by that.
	AllocsPerPoint uint64 `json:"allocs_per_point"`
	// AllocBytes counts bytes allocated during the run.
	AllocBytes uint64 `json:"alloc_bytes"`
	// EventsFired counts discrete-event kernel events executed during the
	// run (0 for analytic scenarios that never touch a kernel). The seed
	// fixes it exactly, so Compare gates it with no tolerance.
	EventsFired uint64 `json:"events_fired"`
}

// Report is the full benchmark record serialized to BENCH.json.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	GOOS          string `json:"goos"`
	GOARCH        string `json:"goarch"`
	// CPU is the best-effort processor model of the recording machine and
	// NumCPU its logical core count: the context of the wall times.
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
	// Workers sizes the sweep pool per scenario, and Run holds GOMAXPROCS
	// at it. 1 (the default used by the CLI) makes allocation counts exact.
	Workers int
	// Progress, when non-nil, receives one line per finished scenario.
	Progress io.Writer
}

// Run benchmarks every scenario in the registry sequentially and returns
// the report. Scenarios run one at a time — never concurrently with each
// other — so per-scenario wall time, allocation deltas, and event counts
// are attributable. GOMAXPROCS is held at cfg.Workers for the run: the
// runtime keeps free goroutines and sync.Pool entries per processor, and
// with more processors than workers whether a run reuses one or allocates
// afresh depends on where the scheduler put the last user.
func Run(scenarios []scenario.Scenario, cfg Config) (*Report, error) {
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("bench: workers %d must be positive", cfg.Workers)
	}
	if err := cfg.Scale.Validate(); err != nil {
		return nil, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cfg.Workers))
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
	total := time.Now()
	for _, sc := range scenarios {
		// Measure repeats times and keep the fastest: the work is
		// deterministic (fixed seed), so the minimum is the cleanest
		// estimate of the scenario's cost and is robust against one
		// repeat landing on a busy moment.
		var res ScenarioResult
		var minAllocs uint64
		for try := 0; try < repeats; try++ {
			m, err := measure(sc, cfg, try == 0)
			if err != nil {
				return nil, fmt.Errorf("bench: %s: %w", sc.ID, err)
			}
			// The allocation minimum is tracked across all repeats, not
			// taken from the fastest one: the repeat with the fewest
			// allocations is the one least polluted by runtime background
			// work, and it need not be the fastest.
			if try == 0 || m.allocs < minAllocs {
				minAllocs = m.allocs
			}
			if try > 0 && m.wallNS >= res.WallNS {
				continue
			}
			res = ScenarioResult{
				ID:          sc.ID,
				Artifact:    sc.Artifact,
				Points:      m.points,
				WallNS:      m.wallNS,
				NSPerPoint:  m.wallNS / int64(m.points),
				Allocs:      m.allocs,
				AllocBytes:  m.allocBytes,
				EventsFired: m.fired,
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

// measurement is one measured run of one scenario.
type measurement struct {
	wallNS     int64
	points     int // 1 for table scenarios
	allocs     uint64
	allocBytes uint64
	fired      uint64
}

// measure runs one scenario once and measures it. With warm set
// it first runs the scenario once unmeasured, so one-time costs — a sweep
// worker's first simulation pools, protocol state built on first use — fall
// in no measured repeat. Every measured repeat then follows a run of the
// same scenario: a single repeat reports the steady state the minimum of
// several does, whichever scenario ran before.
func measure(sc scenario.Scenario, cfg Config, warm bool) (measurement, error) {
	run := func() ([]scenario.Output, error) {
		return scenario.RunAllCtx(context.Background(), []scenario.Scenario{sc}, cfg.Scale,
			scenario.RunOptions{Workers: cfg.Workers})
	}
	if warm {
		if _, err := run(); err != nil {
			return measurement{}, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC() // attribute floating garbage to this measurement
	// No collection inside the window: a cycle clears every sync.Pool, and
	// where in the run one starts varies, so the refills would too. The
	// heap grows by the run's alloc_bytes before the collector resumes.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.ReadMemStats(&ms0)
	fired0 := sim.TotalFired()
	start := time.Now()
	outs, err := run()
	wall := time.Since(start)
	if err != nil {
		return measurement{}, err
	}
	runtime.ReadMemStats(&ms1)
	return measurement{
		wallNS:     wall.Nanoseconds(),
		points:     max(len(outs[0].Points), 1), // TableFn scenarios: one unit of work
		allocs:     ms1.Mallocs - ms0.Mallocs,
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		fired:      sim.TotalFired() - fired0,
	}, nil
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

// Regression is one scenario that fails the baseline gate: it fires more
// kernel events or allocates more per point than the baseline, or it is
// missing from the current run.
type Regression struct {
	ID string
	// Metric names the failed count: "events" or "allocs/point"; empty
	// when the scenario is missing from the current run.
	Metric string
	// Base and Cur are the compared counts.
	Base, Cur uint64
}

// Compare diffs current against base. It returns every regression, and
// the IDs of the scenarios that now fire fewer kernel events than the
// baseline: those pass, but the baseline no longer pins their event count
// and should be refreshed. A scenario present in the baseline but missing
// from the current run is a regression — a silently dropped benchmark
// must not pass. New scenarios absent from the baseline are ignored.
func Compare(base, current *Report) (regs []Regression, fewer []string, err error) {
	if base.SchemaVersion != current.SchemaVersion {
		return nil, nil, fmt.Errorf("bench: schema mismatch: baseline v%d vs current v%d",
			base.SchemaVersion, current.SchemaVersion)
	}
	// The counts are only comparable between runs of the same workload: a
	// scale, worker, or seed mismatch would gate two different jobs.
	if base.Scale != current.Scale {
		return nil, nil, fmt.Errorf("bench: scale mismatch: baseline %q vs current %q", base.Scale, current.Scale)
	}
	if base.Workers != current.Workers {
		return nil, nil, fmt.Errorf("bench: workers mismatch: baseline %d vs current %d", base.Workers, current.Workers)
	}
	if base.Seed != current.Seed {
		return nil, nil, fmt.Errorf("bench: seed mismatch: baseline %d vs current %d", base.Seed, current.Seed)
	}
	cur := make(map[string]ScenarioResult, len(current.Scenarios))
	for _, s := range current.Scenarios {
		cur[s.ID] = s
	}
	for _, b := range base.Scenarios {
		c, ok := cur[b.ID]
		switch {
		case !ok:
			regs = append(regs, Regression{ID: b.ID})
			continue
		case c.EventsFired > b.EventsFired:
			regs = append(regs, Regression{ID: b.ID, Metric: "events", Base: b.EventsFired, Cur: c.EventsFired})
		case c.EventsFired < b.EventsFired:
			fewer = append(fewer, b.ID)
		}
		if c.AllocsPerPoint > b.AllocsPerPoint {
			regs = append(regs, Regression{ID: b.ID, Metric: "allocs/point", Base: b.AllocsPerPoint, Cur: c.AllocsPerPoint})
		}
	}
	return regs, fewer, nil
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
