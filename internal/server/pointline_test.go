package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
)

// pointLine is the shape encoding/json gives a point line; appendPointLine
// must write its bytes.
type pointLine struct {
	Type     string `json:"type"` // "point"
	Scenario string `json:"scenario"`
	scenario.PointOutput
	Cached bool `json:"cached"`
}

// randomResult draws a result whose fields are each either zero (so
// omitempty drops them) or a float of random sign and magnitude.
func randomResult(r *rand.Rand) scenario.Result {
	f := func() float64 {
		switch r.IntN(4) {
		case 0:
			return 0
		case 1:
			return r.Float64()
		default:
			return (r.Float64() - 0.5) * math.Pow(10, float64(r.IntN(60)-30))
		}
	}
	return scenario.Result{
		Y: f(), Skip: r.IntN(5) == 0, EnergyJ: f(), LatencyS: f(), Delivery: f(),
		FirstDeathS: f(), HalfDeadS: f(), AliveFrac: f(), Depleted: f(), EnergyVarJ2: f(),
	}
}

// TestPointLineMatchesEncoder: for every point of every registry
// scenario at the quick, bench and paper scales, with a random result and
// either cached flag, appendPointLine writes the bytes json.Encoder
// writes for the same pointLine.
func TestPointLineMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 1))
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	var got []byte
	lines := 0
	for _, name := range []string{"quick", "bench", "paper"} {
		s, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range experiments.Registry().All() {
			if !sc.PointBased() {
				continue
			}
			pts, err := sc.Points(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range pts {
				po := scenario.PointOutput{Point: pt, Result: randomResult(rng)}
				for _, cached := range []bool{true, false} {
					want.Reset()
					if err := enc.Encode(pointLine{Type: "point", Scenario: sc.ID, PointOutput: po, Cached: cached}); err != nil {
						t.Fatal(err)
					}
					if got, err = appendPointLine(got[:0], sc.ID, &po, cached); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want.Bytes()) {
						t.Fatalf("%s at %s:\n  appendPointLine %s  json.Encoder    %s", sc.ID, name, got, want.Bytes())
					}
					lines++
				}
			}
		}
	}
	if lines < 1000 {
		t.Fatalf("only %d lines compared", lines)
	}
}

// TestNonFiniteResultEndsStream: a point whose result JSON cannot encode
// (here y = NaN) ends the stream with an error line naming the scenario
// and the point, instead of vanishing from a stream that then reports done.
func TestNonFiniteResultEndsStream(t *testing.T) {
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.Scenario{
		ID: "nan", Title: "nan", Artifact: "extension", Summary: "first point is not a number",
		Params: []scenario.ParamDoc{{Name: "x", Desc: "x"}},
		XLabel: "x", YLabel: "y",
		Points: func(scenario.Scale) ([]scenario.Point, error) {
			return []scenario.Point{
				{Series: "a", X: 0, Params: map[string]float64{"x": 0}},
				{Series: "a", X: 1, Params: map[string]float64{"x": 1}},
			}, nil
		},
		RunPoint: func(_ scenario.Scale, pt scenario.Point) (scenario.Result, error) {
			if pt.X == 0 {
				return scenario.Result{Y: math.NaN()}, nil
			}
			return scenario.Result{Y: 1}, nil
		},
	})
	srv, err := New(Options{Registry: reg, MaxWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, workers := range []int{1, 2} {
		for run := range 2 { // computed, then from the memory tier
			lines := rawRun(t, ts.URL, `{"experiment":"nan","scale":"quick","workers":`+strconv.Itoa(workers)+`}`)
			if len(lines) != 2 || !strings.Contains(lines[0], `"jobs":2`) {
				t.Fatalf("workers=%d run %d: want the header and one error line, got:\n%s", workers, run, strings.Join(lines, "\n"))
			}
			var e errorLine
			if err := json.Unmarshal([]byte(lines[1]), &e); err != nil {
				t.Fatal(err)
			}
			if e.Type != "error" || !strings.Contains(e.Error, `nan: point series "a" x=0 [x=0]`) || !strings.Contains(e.Error, "NaN") {
				t.Fatalf("workers=%d run %d: error line %s", workers, run, lines[1])
			}
		}
	}
}
