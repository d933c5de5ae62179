package bench

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pbbf/internal/scenario"
	"pbbf/internal/stats"
	"pbbf/internal/trace"
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

// report builds a fixture whose entries sit well above the noise floor
// (scale factor 100x NoiseFloorNS) so Compare actually gates them.
func report(entries map[string]int64) *Report {
	r := &Report{SchemaVersion: SchemaVersion}
	for _, id := range []string{"a", "b", "c"} {
		ns, ok := entries[id]
		if !ok {
			continue
		}
		ns *= 100 * NoiseFloorNS / 1000
		r.Scenarios = append(r.Scenarios, ScenarioResult{ID: id, Points: 1, WallNS: ns, NSPerPoint: ns})
	}
	return r
}

// TestCompareNoiseFloor: a scenario whose baseline wall time is below the
// noise floor is recorded but never gated, however big its ratio.
func TestCompareNoiseFloor(t *testing.T) {
	tiny := ScenarioResult{ID: "tiny", Points: 1, WallNS: NoiseFloorNS - 1, NSPerPoint: NoiseFloorNS - 1}
	base := &Report{SchemaVersion: SchemaVersion, Scenarios: []ScenarioResult{tiny}}
	cur := &Report{SchemaVersion: SchemaVersion, Scenarios: []ScenarioResult{{
		ID: "tiny", Points: 1, WallNS: 50 * NoiseFloorNS, NSPerPoint: 50 * NoiseFloorNS,
	}}}
	regs, err := Compare(base, cur, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("sub-floor scenario gated: %+v", regs)
	}
}

// TestRunKeepsFastestRepeat checks the min-of-N policy through the public
// surface: with many repeats the recorded wall time is the minimum, so it
// can only go down as repeats increase on identical work.
func TestRunKeepsFastestRepeat(t *testing.T) {
	cfg := testConfig()
	cfg.Repeats = 1
	one, err := Run(toyScenarios(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Repeats = 5
	five, err := Run(toyScenarios(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if five.Scenarios[0].WallNS <= 0 {
		t.Fatalf("unmeasured: %+v", five.Scenarios[0])
	}
	// Not a strict inequality claim (machines are noisy), but the min of 5
	// exceeding 20x a single run would mean the min was not kept.
	if five.Scenarios[0].WallNS > 20*one.Scenarios[0].WallNS {
		t.Fatalf("min-of-5 wall %d vs single %d", five.Scenarios[0].WallNS, one.Scenarios[0].WallNS)
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

// TestRunExcludesWarmUpAllocs: a single repeat must report the steady
// state, not the one-time warm-up, or -repeats 1 trips the allocation
// ceiling on a scenario that sits under it at the default repeats.
func TestRunExcludesWarmUpAllocs(t *testing.T) {
	const coldAllocs = 20000
	for _, repeats := range []int{1, DefaultRepeats} {
		cfg := testConfig()
		cfg.Repeats = repeats
		rep, err := Run([]scenario.Scenario{warmUpScenario(coldAllocs)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Scenarios[0].AllocsPerPoint; got >= coldAllocs/4 {
			t.Fatalf("repeats=%d: %d allocs/point includes the one-time warm-up", repeats, got)
		}
	}
}

func TestRunRejectsNegativeRepeats(t *testing.T) {
	cfg := testConfig()
	cfg.Repeats = -1
	if _, err := Run(toyScenarios(), cfg); err == nil {
		t.Fatal("negative repeats accepted")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := report(map[string]int64{"a": 1000, "b": 1000, "c": 1000})
	cur := report(map[string]int64{"a": 1290, "b": 1500, "c": 900})
	regs, err := Compare(base, cur, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].ID != "b" {
		t.Fatalf("regressions: %+v", regs)
	}
	if regs[0].Ratio < 1.49 || regs[0].Ratio > 1.51 {
		t.Fatalf("ratio = %v", regs[0].Ratio)
	}
}

func TestCompareMissingScenarioIsRegression(t *testing.T) {
	base := report(map[string]int64{"a": 1000, "b": 1000})
	cur := report(map[string]int64{"a": 1000})
	regs, err := Compare(base, cur, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].ID != "b" || regs[0].CurNSPerPoint != 0 {
		t.Fatalf("regressions: %+v", regs)
	}
}

func TestCompareNewScenarioIgnored(t *testing.T) {
	base := report(map[string]int64{"a": 1000})
	cur := report(map[string]int64{"a": 1000, "b": 99999})
	regs, err := Compare(base, cur, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("new scenario flagged: %+v", regs)
	}
}

func TestCompareSchemaMismatch(t *testing.T) {
	base := report(map[string]int64{"a": 1000})
	cur := report(map[string]int64{"a": 1000})
	cur.SchemaVersion = SchemaVersion + 1
	if _, err := Compare(base, cur, 0.30); err == nil ||
		!strings.Contains(err.Error(), "schema") {
		t.Fatalf("schema mismatch not rejected: %v", err)
	}
}

func TestCompareBadThreshold(t *testing.T) {
	base := report(map[string]int64{"a": 1000})
	if _, err := Compare(base, base, 0); err == nil {
		t.Fatal("zero threshold accepted")
	}
	if _, err := Compare(base, base, -0.3); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestRunRejectsNegativeWorkers(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = -2
	if _, err := Run(toyScenarios(), cfg); err == nil {
		t.Fatal("negative workers accepted")
	}
}

// allocReport builds a fixture with the given allocs-per-point entries,
// keeping wall times below NoiseFloorNS so only the allocation gate fires.
func allocReport(entries map[string]uint64) *Report {
	r := &Report{SchemaVersion: SchemaVersion}
	for _, id := range []string{"a", "b", "c"} {
		n, ok := entries[id]
		if !ok {
			continue
		}
		r.Scenarios = append(r.Scenarios, ScenarioResult{
			ID: id, Points: 1, WallNS: 1, NSPerPoint: 1, AllocsPerPoint: n,
		})
	}
	return r
}

func TestCompareFlagsAllocRegressions(t *testing.T) {
	base := allocReport(map[string]uint64{"a": 10 * AllocNoiseFloor, "b": 10 * AllocNoiseFloor})
	cur := allocReport(map[string]uint64{"a": 15 * AllocNoiseFloor, "b": 11 * AllocNoiseFloor})
	regs, err := Compare(base, cur, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].ID != "a" || regs[0].Metric != "allocs/point" {
		t.Fatalf("regressions: %+v", regs)
	}
	if regs[0].Ratio < 1.49 || regs[0].Ratio > 1.51 {
		t.Fatalf("ratio = %v", regs[0].Ratio)
	}
}

// TestCompareAllocNoiseFloor: a baseline below AllocNoiseFloor is never
// gated on allocations, however big the ratio — one stray runtime
// allocation would otherwise fail builds at random.
func TestCompareAllocNoiseFloor(t *testing.T) {
	base := allocReport(map[string]uint64{"a": AllocNoiseFloor - 1})
	cur := allocReport(map[string]uint64{"a": 100 * AllocNoiseFloor})
	regs, err := Compare(base, cur, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("sub-floor alloc count gated: %+v", regs)
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
		r := report(map[string]int64{"a": 1000})
		mut(r)
		return r
	}
	base := mk(func(*Report) {})
	for name, cur := range map[string]*Report{
		"scale":   mk(func(r *Report) { r.Scale = "paper" }),
		"workers": mk(func(r *Report) { r.Workers = 4 }),
		"seed":    mk(func(r *Report) { r.Seed = 99 }),
	} {
		if _, err := Compare(base, cur, 0.30); err == nil {
			t.Fatalf("%s mismatch accepted", name)
		}
	}
}

func TestRunOverheadPairsArms(t *testing.T) {
	rep, err := RunOverhead(toyScenarios(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scale != "quick" || rep.Workers != 1 || rep.Repeats != DefaultRepeats {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	toy := rep.Results[0]
	if toy.ID != "toy" || toy.Points != 2 {
		t.Fatalf("toy result: %+v", toy)
	}
	if toy.UntracedCPUNSPerPoint <= 0 || toy.TracedCPUNSPerPoint <= 0 || toy.Ratio <= 0 {
		t.Fatalf("arms not measured: %+v", toy)
	}
	// Toy scenarios finish in microseconds — far under the noise floor,
	// so they must be recorded but excluded from the gate.
	for _, r := range rep.Results {
		if r.Gated {
			t.Fatalf("%s gated below the noise floor: %+v", r.ID, r)
		}
	}
}

func TestRunOverheadRejectsBadConfig(t *testing.T) {
	cfg := testConfig()
	cfg.Repeats = -1
	if _, err := RunOverhead(toyScenarios(), cfg); err == nil {
		t.Fatal("negative repeats accepted")
	}
	cfg = testConfig()
	cfg.Workers = -1
	if _, err := RunOverhead(toyScenarios(), cfg); err == nil {
		t.Fatal("negative workers accepted")
	}
}

// spin burns a fixed amount of CPU work (not a fixed wall time, which a
// preempted loop would stretch without using more CPU).
func spin(rounds int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < rounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// sink keeps spin's result live.
var sink uint64

// armScenario is a one-point scenario whose points do the same CPU work in
// both arms, plus extra only in the traced arm: a sleep, or more work.
func armScenario(tracedExtra func()) scenario.Scenario {
	return scenario.Scenario{
		ID: "arms", Title: "overhead arms", Artifact: "extension",
		Summary: "benchmark fixture",
		Params:  []scenario.ParamDoc{{Name: "x", Desc: "sweep coordinate"}},
		XLabel:  "x", YLabel: "y",
		Points: func(scenario.Scale) ([]scenario.Point, error) {
			return []scenario.Point{{Series: "s", X: 1, Params: map[string]float64{"x": 1}}}, nil
		},
		RunPointCtx: func(ctx context.Context, _ scenario.Scale, pt scenario.Point) (scenario.Result, error) {
			sink += spin(4_000_000)
			if trace.ProviderFrom(ctx) != nil {
				tracedExtra()
			}
			return scenario.Result{Y: pt.X}, nil
		},
	}
}

// TestRunOverheadMeasuresCPU: a traced arm that only waits costs no CPU
// and passes a 15% gate however long it waits; one that computes twice as
// much fails it.
func TestRunOverheadMeasuresCPU(t *testing.T) {
	for _, tc := range []struct {
		name   string
		extra  func()
		lo, hi float64
	}{
		{"sleeps", func() { time.Sleep(20 * time.Millisecond) }, 0, 1.15},
		{"spins", func() { sink += spin(4_000_000) }, 1.15, 10},
	} {
		rep, err := RunOverhead([]scenario.Scenario{armScenario(tc.extra)}, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Results[0]
		if !r.Gated || r.Ratio <= tc.lo || r.Ratio >= tc.hi {
			t.Errorf("%s: ratio %.2f (gated %v), want in (%.2f, %.2f): %+v", tc.name, r.Ratio, r.Gated, tc.lo, tc.hi, r)
		}
	}
}
