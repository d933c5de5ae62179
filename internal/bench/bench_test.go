package bench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pbbf/internal/experiments"
	"pbbf/internal/raceflag"
	"pbbf/internal/scenario"
	"pbbf/internal/stats"
)

// toyScenarios returns a minimal registry slice: one point-based scenario
// and one table scenario.
func toyScenarios() []scenario.Scenario {
	return []scenario.Scenario{
		{
			ID: "toy", Title: "toy sweep", Artifact: "extension",
			Summary: "benchmark fixture",
			Params:  []scenario.ParamDoc{{Name: "x", Desc: "sweep coordinate"}},
			XLabel:  "x", YLabel: "y",
			Points: func(scenario.Scale) ([]scenario.Point, error) {
				return []scenario.Point{
					{Series: "s", X: 1, Params: map[string]float64{"x": 1}},
					{Series: "s", X: 2, Params: map[string]float64{"x": 2}},
				}, nil
			},
			RunPoint: func(_ scenario.Scale, pt scenario.Point) (scenario.Result, error) {
				return scenario.Result{Y: pt.X * 2}, nil
			},
		},
		{
			ID: "toytable", Title: "toy table", Artifact: "extension",
			Summary: "benchmark fixture",
			TableFn: func(scenario.Scale) (*stats.Table, error) {
				tbl := &stats.Table{Title: "toy table"}
				tbl.AddSeries("s").Append(1, 1)
				return tbl, nil
			},
		},
	}
}

func testConfig() Config {
	return Config{Scale: scenario.Quick(), ScaleName: "quick", Workers: 1}
}

func TestRunProducesMeasurements(t *testing.T) {
	rep, err := Run(toyScenarios(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != SchemaVersion || rep.Scale != "quick" || rep.Workers != 1 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("got %d scenario results", len(rep.Scenarios))
	}
	toy := rep.Scenarios[0]
	if toy.ID != "toy" || toy.Points != 2 {
		t.Fatalf("toy result: %+v", toy)
	}
	if toy.WallNS <= 0 || toy.NSPerPoint <= 0 {
		t.Fatalf("unmeasured wall time: %+v", toy)
	}
	if table := rep.Scenarios[1]; table.Points != 1 {
		t.Fatalf("table scenario points = %d, want 1", table.Points)
	}
	if rep.TotalWallNS < toy.WallNS {
		t.Fatalf("total %d < scenario %d", rep.TotalWallNS, toy.WallNS)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep, err := Run(toyScenarios(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip changed the report:\nwrote %+v\nread  %+v", rep, back)
	}
}

func TestReadFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"bad.json":   "{not json",
		"empty.json": "{}",
	} {
		path := filepath.Join(dir, name)
		if err := writeFile(path, content); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// report builds a one-point-per-scenario fixture from each scenario's
// kernel events fired.
func report(entries map[string]uint64) *Report {
	r := &Report{SchemaVersion: SchemaVersion}
	for _, id := range []string{"a", "b", "c"} {
		events, ok := entries[id]
		if !ok {
			continue
		}
		r.Scenarios = append(r.Scenarios, ScenarioResult{ID: id, Points: 1, EventsFired: events})
	}
	return r
}

// TestCompareIgnoresWallTime: wall time measures the machine as much as
// the program, so however much slower a scenario runs, with the same
// counts it passes.
func TestCompareIgnoresWallTime(t *testing.T) {
	base := report(map[string]uint64{"a": 1000})
	cur := report(map[string]uint64{"a": 1000})
	base.Scenarios[0].WallNS, base.Scenarios[0].NSPerPoint = 1, 1
	cur.Scenarios[0].WallNS, cur.Scenarios[0].NSPerPoint = 1e12, 1e12
	regs, fewer, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 || len(fewer) != 0 {
		t.Fatalf("wall time gated: %+v %v", regs, fewer)
	}
}

// slowFirstScenario is the two-point toy scenario whose first slowCalls
// point calls sleep for slow, the way a repeat that lands on a busy moment
// runs long; every later call returns at once.
func slowFirstScenario(slowCalls int, slow time.Duration) scenario.Scenario {
	sc := toyScenarios()[0]
	calls := 0
	sc.RunPoint = func(_ scenario.Scale, pt scenario.Point) (scenario.Result, error) {
		if calls++; calls <= slowCalls {
			time.Sleep(slow)
		}
		return scenario.Result{Y: pt.X}, nil
	}
	return sc
}

// TestRunKeepsFastestRepeat: the reported wall time is the fastest repeat,
// so a first measured repeat that runs long does not reach the report.
func TestRunKeepsFastestRepeat(t *testing.T) {
	const slow = 50 * time.Millisecond
	// The toy scenario has two points: the warm-up run and the first
	// measured repeat make four calls.
	rep, err := Run([]scenario.Scenario{slowFirstScenario(4, slow)}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Scenarios[0].WallNS; got <= 0 || got >= slow.Nanoseconds() {
		t.Fatalf("wall %d ns, want the fastest repeat (under %d)", got, slow.Nanoseconds())
	}
}

// warmUpSink keeps warmUpScenario's one-time allocations reachable.
var warmUpSink []*int

// warmUpScenario is a two-point scenario whose first point pays a one-time
// cost of coldAllocs heap allocations, the way a sweep worker's first
// simulation point builds its pools; every later point allocates nothing.
func warmUpScenario(coldAllocs int) scenario.Scenario {
	sc := toyScenarios()[0]
	cold := true
	sc.RunPoint = func(_ scenario.Scale, pt scenario.Point) (scenario.Result, error) {
		if cold {
			cold = false
			warmUpSink = make([]*int, coldAllocs)
			for i := range warmUpSink {
				warmUpSink[i] = new(int)
			}
		}
		return scenario.Result{Y: pt.X}, nil
	}
	return sc
}

// TestRunExcludesWarmUpAllocs: the report holds the steady state, not the
// one-time warm-up, or the allocation ceiling would trip on a scenario
// that sits under it.
func TestRunExcludesWarmUpAllocs(t *testing.T) {
	const coldAllocs = 20000
	rep, err := Run([]scenario.Scenario{warmUpScenario(coldAllocs)}, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Scenarios[0].AllocsPerPoint; got >= coldAllocs/4 {
		t.Fatalf("%d allocs/point includes the one-time warm-up", got)
	}
}

// TestRunCountsRepeatExactly: at one worker, two runs of the same
// scenarios count the same kernel events and the same allocations per
// point, which is what lets Compare gate both with no tolerance.
func TestRunCountsRepeatExactly(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless under -race")
	}
	reg := experiments.Registry()
	var scs []scenario.Scenario
	for _, id := range []string{"table1", "fig4", "fig13", "fig17", "extgossip"} {
		sc, err := reg.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, sc)
	}
	first, err := Run(scs, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := Run(scs, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		for k, a := range again.Scenarios {
			f := first.Scenarios[k]
			if a.EventsFired != f.EventsFired || a.AllocsPerPoint != f.AllocsPerPoint || a.Allocs != f.Allocs {
				t.Errorf("%s: run %d counted %d events, %d allocs (%d/point); first run %d, %d (%d/point)",
					a.ID, i+2, a.EventsFired, a.Allocs, a.AllocsPerPoint, f.EventsFired, f.Allocs, f.AllocsPerPoint)
			}
		}
	}
}

// TestCompareFlagsRegressions: one kernel event more than the baseline
// fails; fewer pass, named so the baseline can be refreshed.
func TestCompareFlagsRegressions(t *testing.T) {
	base := report(map[string]uint64{"a": 1000, "b": 1000, "c": 1000})
	cur := report(map[string]uint64{"a": 1000, "b": 1001, "c": 999})
	regs, fewer, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	want := []Regression{{ID: "b", Metric: "events", Base: 1000, Cur: 1001}}
	if !reflect.DeepEqual(regs, want) {
		t.Fatalf("regressions = %+v, want %+v", regs, want)
	}
	if !reflect.DeepEqual(fewer, []string{"c"}) {
		t.Fatalf("fewer = %v, want [c]", fewer)
	}
}

func TestCompareMissingScenarioIsRegression(t *testing.T) {
	base := report(map[string]uint64{"a": 1000, "b": 1000})
	cur := report(map[string]uint64{"a": 1000})
	regs, _, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Regression{{ID: "b"}}; !reflect.DeepEqual(regs, want) {
		t.Fatalf("regressions = %+v, want %+v", regs, want)
	}
}

func TestCompareNewScenarioIgnored(t *testing.T) {
	base := report(map[string]uint64{"a": 1000})
	cur := report(map[string]uint64{"a": 1000, "b": 99999})
	regs, _, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("new scenario flagged: %+v", regs)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	base := report(map[string]uint64{"a": 1000})
	cur := report(map[string]uint64{"a": 1000})
	cur.SchemaVersion = SchemaVersion + 1
	if _, _, err := Compare(base, cur); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -2
	if _, err := Run(toyScenarios(), cfg); err == nil {
		t.Fatal("negative workers accepted")
	}
}

// TestCompareFlagsAllocRegressions: one allocation per point more than the
// baseline fails; fewer pass.
func TestCompareFlagsAllocRegressions(t *testing.T) {
	base := report(map[string]uint64{"a": 1000, "b": 1000})
	cur := report(map[string]uint64{"a": 1000, "b": 1000})
	base.Scenarios[0].AllocsPerPoint, cur.Scenarios[0].AllocsPerPoint = 64, 65
	base.Scenarios[1].AllocsPerPoint, cur.Scenarios[1].AllocsPerPoint = 64, 63
	regs, _, err := Compare(base, cur)
	if err != nil {
		t.Fatal(err)
	}
	want := []Regression{{ID: "a", Metric: "allocs/point", Base: 64, Cur: 65}}
	if !reflect.DeepEqual(regs, want) {
		t.Fatalf("regressions = %+v, want %+v", regs, want)
	}
}

func TestCheckCeilings(t *testing.T) {
	rep := &Report{SchemaVersion: SchemaVersion, Scale: "bench"}
	for _, id := range FlagshipScenarios {
		rep.Scenarios = append(rep.Scenarios, ScenarioResult{
			ID: id, Points: 1, AllocsPerPoint: FlagshipAllocCeiling,
		})
	}
	if viols := CheckCeilings(rep); len(viols) != 0 {
		t.Fatalf("at-ceiling report flagged: %+v", viols)
	}
	rep.Scenarios[0].AllocsPerPoint = FlagshipAllocCeiling + 1
	viols := CheckCeilings(rep)
	if len(viols) != 1 || viols[0].ID != FlagshipScenarios[0] || viols[0].Missing {
		t.Fatalf("over-ceiling report: %+v", viols)
	}

	// The ideal-MAC scenarios are held to the same ceiling: one over it
	// and one missing are both violations.
	rep.Scenarios = nil
	for _, id := range FlagshipScenarios {
		if id == "exttmac" {
			continue
		}
		allocs := uint64(FlagshipAllocCeiling)
		if id == "fig8" {
			allocs = 7520 // an unpooled ideal-MAC point
		}
		rep.Scenarios = append(rep.Scenarios, ScenarioResult{ID: id, Points: 1, AllocsPerPoint: allocs})
	}
	want := []CeilingViolation{
		{ID: "fig8", AllocsPerPoint: 7520, Ceiling: FlagshipAllocCeiling},
		{ID: "exttmac", Ceiling: FlagshipAllocCeiling, Missing: true},
	}
	if got := CheckCeilings(rep); !reflect.DeepEqual(got, want) {
		t.Fatalf("violations = %+v, want %+v", got, want)
	}
}

// TestCheckCeilingsMissingFlagship: silently dropping a flagship scenario
// from the bench run must fail, exactly like a dropped baseline benchmark.
func TestCheckCeilingsMissingFlagship(t *testing.T) {
	rep := &Report{SchemaVersion: SchemaVersion, Scale: "bench"}
	viols := CheckCeilings(rep)
	if len(viols) != len(FlagshipScenarios) {
		t.Fatalf("got %d violations, want %d", len(viols), len(FlagshipScenarios))
	}
	for _, v := range viols {
		if !v.Missing {
			t.Fatalf("missing scenario not marked: %+v", v)
		}
	}
}

// TestCheckCeilingsOnlyAtBenchScale: the absolute budget is defined for the
// frozen bench workload; other scales aggregate different run counts per
// point and are exempt.
func TestCheckCeilingsOnlyAtBenchScale(t *testing.T) {
	rep := &Report{SchemaVersion: SchemaVersion, Scale: "quick"}
	if viols := CheckCeilings(rep); viols != nil {
		t.Fatalf("non-bench scale gated: %+v", viols)
	}
}

// writeFile is a test helper (kept out of the library surface).
func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestCompareWorkloadMismatch(t *testing.T) {
	mk := func(mut func(*Report)) *Report {
		r := report(map[string]uint64{"a": 1000})
		mut(r)
		return r
	}
	base := mk(func(*Report) {})
	for name, cur := range map[string]*Report{
		"scale":   mk(func(r *Report) { r.Scale = "paper" }),
		"workers": mk(func(r *Report) { r.Workers = 4 }),
		"seed":    mk(func(r *Report) { r.Seed = 99 }),
	} {
		if _, _, err := Compare(base, cur); err == nil {
			t.Fatalf("%s mismatch accepted", name)
		}
	}
}
