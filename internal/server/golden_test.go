package server

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
)

// streamGoldenBody is the request behind testdata/run_stream.ndjson: every
// scenario of streamGoldenRegistry at the quick scale, two workers, a
// fixed seed.
const streamGoldenBody = `{"experiment":"all","scale":"quick","seed":7,"workers":2}`

// streamGoldenRegistry holds fig8 and exthetero from the real registry
// (the latter's series carry the non-ASCII '±') and "escapes", whose
// series, parameter names and results need every string escape and
// float spelling encoding/json has: the HTML escapes, control bytes,
// U+2028, '-0', subnormals and both exponent switches.
func streamGoldenRegistry(t testing.TB) *scenario.Registry {
	t.Helper()
	reg := scenario.NewRegistry()
	for _, id := range []string{"fig8", "exthetero"} {
		sc, err := experiments.Registry().ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		reg.MustRegister(sc)
	}
	ys := []float64{math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 123456789, 1e21, -2.5e-300, 0.1}
	reg.MustRegister(scenario.Scenario{
		ID: "escapes", Title: "escapes", Artifact: "extension", Summary: "strings and floats that need escaping",
		Params: []scenario.ParamDoc{{Name: "p&q", Desc: "p"}, {Name: "<q>", Desc: "q"}},
		XLabel: "x", YLabel: "y",
		Points: func(scenario.Scale) ([]scenario.Point, error) {
			series := []string{"PBBF <p&q>", "tab\there \"quoted\" back\\slash", "line\u2028sep é±"}
			pts := make([]scenario.Point, len(ys))
			for i := range pts {
				pts[i] = scenario.Point{
					Series: series[i%len(series)],
					X:      ys[len(ys)-1-i],
					Params: map[string]float64{"p&q": float64(i) / 3, "<q>": ys[i]},
				}
			}
			return pts, nil
		},
		RunPoint: func(_ scenario.Scale, pt scenario.Point) (scenario.Result, error) {
			y := pt.Params["<q>"]
			return scenario.Result{
				Y: y, Skip: y == 1e21, EnergyJ: -y, LatencyS: pt.X, Delivery: pt.Params["p&q"],
				FirstDeathS: y * 3, HalfDeadS: 1e20, AliveFrac: 1e-6, Depleted: 9.999999e-7, EnergyVarJ2: y / 7,
			}, nil
		},
	})
	return reg
}

var wallMS = regexp.MustCompile(`"wall_ms":[^,]*`)

// TestRunStreamGoldenAllTiers pins the /v1/run bytes of one request and
// requires the same bytes whichever tier answers its points: computed,
// memory hits, and disk hits after a restart on the same store directory.
// Only each point's cached flag and the done line's counters may differ
// between the tiers; wall_ms is masked.
func TestRunStreamGoldenAllTiers(t *testing.T) {
	want, err := os.ReadFile("testdata/run_stream.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	dir := t.TempDir()
	reg := streamGoldenRegistry(t)
	serve := func() (*Server, *httptest.Server) {
		srv, err := New(Options{Registry: reg, Disk: StoreOptions{Dir: dir}, MaxWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv)
	}
	check := func(tier string, cached bool, got []string) {
		t.Helper()
		if len(got) != len(wantLines) {
			t.Fatalf("%s: %d lines, want %d:\n%s", tier, len(got), len(wantLines), strings.Join(got, "\n"))
		}
		last := len(got) - 1
		for i, line := range got[:last] {
			if cached {
				line = strings.Replace(line, `,"cached":true}`, `,"cached":false}`, 1)
			}
			if line != wantLines[i] {
				t.Fatalf("%s: line %d differs:\n  got:  %s\n  want: %s", tier, i, got[i], wantLines[i])
			}
		}
		if !cached {
			if done := wallMS.ReplaceAllString(got[last], `"wall_ms":0`); done != wantLines[last] {
				t.Fatalf("%s: done line differs:\n  got:  %s\n  want: %s", tier, done, wantLines[last])
			}
			return
		}
		var done doneLine
		if err := json.Unmarshal([]byte(got[last]), &done); err != nil {
			t.Fatal(err)
		}
		if done.Type != "done" || done.Jobs != last-1 || done.CachedPoints != last-1 {
			t.Fatalf("%s: done line %s", tier, got[last])
		}
	}

	srv, ts := serve()
	check("compute", false, rawRun(t, ts.URL, streamGoldenBody))
	check("memory", true, rawRun(t, ts.URL, streamGoldenBody))
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, ts = serve()
	defer srv.Close()
	defer ts.Close()
	check("disk", true, rawRun(t, ts.URL, streamGoldenBody))
	if st := srv.results.Stats(); st.Tiers[1].Hits != uint64(len(wantLines)-2) {
		t.Fatalf("restarted run was not answered from disk: %+v", st.Tiers[1])
	}
}
