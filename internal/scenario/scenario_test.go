package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"pbbf/internal/stats"
)

// fake returns a minimal valid point-based scenario whose result encodes
// the point it ran, so assembly order can be asserted.
func fake(id string) Scenario {
	return Scenario{
		ID:       id,
		Title:    "fake " + id,
		Artifact: "extension",
		Summary:  "engine test scenario",
		Params:   []ParamDoc{{Name: "x", Desc: "the x coordinate"}},
		XLabel:   "x",
		YLabel:   "y",
		Points: func(s Scale) ([]Point, error) {
			var pts []Point
			for _, series := range []string{"a", "b"} {
				for x := 0.0; x < 3; x++ {
					pts = append(pts, Point{Series: series, X: x, Params: map[string]float64{"x": x}})
				}
			}
			return pts, nil
		},
		RunPoint: func(s Scale, pt Point) (Result, error) {
			return Result{Y: pt.X * 10, EnergyJ: pt.X, Delivery: 1}, nil
		},
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(fake("dup")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(fake("dup")); err == nil {
		t.Fatal("duplicate ID accepted")
	}
	if err := r.Register(fake("DUP")); err == nil {
		t.Fatal("case-variant duplicate accepted (IDs must be lower-case and unique)")
	}
	if r.Len() != 1 {
		t.Fatalf("registry has %d entries after rejections, want 1", r.Len())
	}
}

func TestRegistryRejectsIncompleteMetadata(t *testing.T) {
	broken := []func(*Scenario){
		func(sc *Scenario) { sc.ID = "" },
		func(sc *Scenario) { sc.ID = "  Mixed Case " },
		func(sc *Scenario) { sc.Title = "" },
		func(sc *Scenario) { sc.Artifact = "" },
		func(sc *Scenario) { sc.Summary = "" },
		func(sc *Scenario) { sc.Params = nil },
		func(sc *Scenario) { sc.Params = []ParamDoc{{Name: "x"}} },
		func(sc *Scenario) { sc.XLabel = "" },
		func(sc *Scenario) { sc.RunPoint = nil },
		func(sc *Scenario) { sc.Points = nil },
		func(sc *Scenario) {
			// Both execution modes at once.
			sc.TableFn = func(Scale) (*stats.Table, error) { return &stats.Table{}, nil }
		},
		func(sc *Scenario) {
			// Neither execution mode.
			sc.Points, sc.RunPoint = nil, nil
		},
	}
	for i, mutate := range broken {
		r := NewRegistry()
		sc := fake("fake")
		mutate(&sc)
		if err := r.Register(sc); err == nil {
			t.Fatalf("case %d: invalid scenario accepted: %+v", i, sc)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(fake("one"))
	r.MustRegister(fake("two"))
	if got := r.All(); len(got) != 2 || got[0].ID != "one" || got[1].ID != "two" {
		t.Fatalf("All() lost registration order: %+v", got)
	}
	if _, err := r.ByID("  ONE "); err != nil {
		t.Fatalf("case/space-insensitive lookup failed: %v", err)
	}
	_, err := r.ByID("three")
	if err == nil || !strings.Contains(err.Error(), "one") {
		t.Fatalf("unknown-ID error should list known IDs, got %v", err)
	}
}

func TestRunAssemblesDeterministically(t *testing.T) {
	s := Quick()
	// Whatever the worker count, the assembled table must be identical.
	want, err := Run(fake("det"), s)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		outs, err := RunAll([]Scenario{fake("det")}, s, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := outs[0].Table
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d changed output:\n%s\nvs\n%s", workers, want.Render(), got.Render())
		}
	}
	if a := want.SeriesByName("a"); a == nil || a.Len() != 3 || a.Y[2] != 20 {
		t.Fatalf("series a wrong: %+v", want.Series)
	}
	if want.Series[0].Name != "a" || want.Series[1].Name != "b" {
		t.Fatalf("series order not first-appearance: %+v", want.Series)
	}
}

func TestRunAllFlattensScenarios(t *testing.T) {
	tableRan := false
	static := Scenario{
		ID: "static", Title: "static", Artifact: "Table 9", Summary: "static table",
		TableFn: func(Scale) (*stats.Table, error) {
			tableRan = true
			tbl := &stats.Table{Title: "static", XLabel: "x", YLabel: "y"}
			tbl.AddSeries("s").Append(1, 2)
			return tbl, nil
		},
	}
	outs, err := RunAll([]Scenario{fake("p1"), static, fake("p2")}, Quick(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 || !tableRan {
		t.Fatalf("outputs %d, tableRan %v", len(outs), tableRan)
	}
	if outs[1].Points != nil || outs[1].Table.Title != "static" {
		t.Fatalf("TableFn output wrong: %+v", outs[1])
	}
	for _, i := range []int{0, 2} {
		if len(outs[i].Points) != 6 {
			t.Fatalf("output %d has %d points, want 6", i, len(outs[i].Points))
		}
		if outs[i].Table.Title != "fake "+outs[i].Scenario.ID {
			t.Fatalf("output %d title %q", i, outs[i].Table.Title)
		}
	}
}

func TestRunAllErrorIsDeterministic(t *testing.T) {
	bad := fake("bad")
	bad.RunPoint = func(s Scale, pt Point) (Result, error) {
		if pt.Series == "b" {
			return Result{}, fmt.Errorf("boom at x=%v", pt.X)
		}
		return Result{Y: pt.X}, nil
	}
	for i := 0; i < 3; i++ {
		_, err := RunAll([]Scenario{bad}, Quick(), 4)
		if err == nil {
			t.Fatal("failing point accepted")
		}
		// The smallest failing index is series "b" at x=0, and the error
		// must attribute it fully: scenario ID, series, x, and parameters.
		for _, want := range []string{`bad: point series "b" x=0 [x=0]`, "boom at x=0"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q missing %q", err, want)
			}
		}
	}
}

func TestRunRejectsUndocumentedParams(t *testing.T) {
	sc := fake("undoc")
	points := sc.Points
	sc.Points = func(s Scale) ([]Point, error) {
		pts, _ := points(s)
		pts[0].Params["mystery"] = 1
		return pts, nil
	}
	if _, err := Run(sc, Quick()); err == nil || !strings.Contains(err.Error(), "mystery") {
		t.Fatalf("undocumented parameter accepted: %v", err)
	}
}

func TestRunValidatesScale(t *testing.T) {
	s := Quick()
	s.GridW = 0
	if _, err := Run(fake("scale"), s); err == nil {
		t.Fatal("invalid scale accepted")
	}
}

// TestKnobsResolve: Resolve canonicalizes what selects the same run to one
// identity and rejects every knob value no run can have, including the
// non-finite floats a flag parses.
func TestKnobsResolve(t *testing.T) {
	canon := []struct{ in, want Knobs }{
		{Knobs{Scale: "quick"}, Knobs{Scale: "quick", Seed: 1}},
		{Knobs{Scale: "quick", Seed: 9, Protocol: " PBBF "}, Knobs{Scale: "quick", Seed: 9}},
		{Knobs{Scale: "bench", Protocol: "SleepSched", EnergyJ: 1.5, HarvestW: 0.005},
			Knobs{Scale: "bench", Seed: 1, Protocol: "sleepsched", EnergyJ: 1.5, HarvestW: 0.005}},
	}
	for _, c := range canon {
		s, got, err := c.in.Resolve()
		if err != nil {
			t.Fatalf("%+v: %v", c.in, err)
		}
		if got != c.want || s.Seed != got.Seed || s.Protocol != got.Protocol || s.EnergyJ != got.EnergyJ || s.HarvestW != got.HarvestW {
			t.Errorf("%+v resolved to %+v (scale seed %d protocol %q), want %+v", c.in, got, s.Seed, s.Protocol, c.want)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, k := range []Knobs{
		{Scale: "huge"},
		{Scale: "quick", Protocol: "nope"},
		{Scale: "quick", EnergyJ: -1},
		{Scale: "quick", EnergyJ: nan},
		{Scale: "quick", EnergyJ: inf},
		{Scale: "quick", EnergyJ: 1, HarvestW: -1},
		{Scale: "quick", EnergyJ: 1, HarvestW: nan},
		{Scale: "quick", EnergyJ: 1, HarvestW: inf},
		{Scale: "quick", HarvestW: 0.01},
	} {
		if _, _, err := k.Resolve(); err == nil {
			t.Errorf("%+v accepted", k)
		}
	}
}

func TestScalePresets(t *testing.T) {
	for _, name := range ScaleNames() {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Every lookup builds a fresh preset: a caller editing its sweep
		// slices must not change the next lookup's.
		s.QSweep[0] = -1
		again, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if again.QSweep[0] == -1 {
			t.Fatalf("ByName(%q) shares its sweep slices between calls", name)
		}
	}
	if _, err := ByName("huge"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestOutputJSONRoundTrip checks the dashboard-facing contract: an Output
// marshals to JSON and unmarshals back to the same table and point data.
func TestOutputJSONRoundTrip(t *testing.T) {
	outs, err := RunAll([]Scenario{fake("json")}, Quick(), 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(outs[0])
	if err != nil {
		t.Fatal(err)
	}
	var back Output
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outs[0].Table, back.Table) {
		t.Fatalf("table did not survive JSON:\n%+v\nvs\n%+v", outs[0].Table, back.Table)
	}
	if !reflect.DeepEqual(outs[0].Points, back.Points) {
		t.Fatalf("points did not survive JSON:\n%+v\nvs\n%+v", outs[0].Points, back.Points)
	}
	if back.Scenario.ID != "json" || back.Scenario.Summary == "" {
		t.Fatalf("metadata did not survive JSON: %+v", back.Scenario)
	}
}
