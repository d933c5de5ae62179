package main

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
	"pbbf/internal/server"
	"pbbf/internal/store"
)

// keyRecorder is a memory result store that remembers every key a result
// is stored under.
type keyRecorder struct {
	*store.Memory
	mu   sync.Mutex
	keys []string
}

func (r *keyRecorder) Put(key string, res scenario.Result) error {
	r.mu.Lock()
	r.keys = append(r.keys, key)
	r.mu.Unlock()
	return r.Memory.Put(key, res)
}

// serveRun posts body to POST /v1/run on a fresh in-process server over
// the full registry. It returns the status, the response lines and the
// sorted keys the run stored results under.
func serveRun(t *testing.T, body string) (int, []string, []string) {
	t.Helper()
	mem, err := store.NewMemory(1, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rec := &keyRecorder{Memory: mem}
	srv, err := server.New(server.Options{Registry: experiments.Registry(), Results: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	slices.Sort(rec.keys)
	return resp.StatusCode, strings.Split(strings.TrimSpace(string(raw)), "\n"), rec.keys
}

// journalKeys runs a checkpointed sweep and returns the sorted PointKeys
// its journal records.
func journalKeys(t *testing.T, args ...string) []string {
	t.Helper()
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	args = append([]string{"-progress=false", "-checkpoint", ckpt}, args...)
	if err := runSweep(context.Background(), args, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	cp, err := scenario.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	return slices.Sorted(maps.Keys(cp.Results))
}

// traceLines runs the trace subcommand and returns its output lines.
func traceLines(t *testing.T, args ...string) []string {
	t.Helper()
	var sb strings.Builder
	if err := run(append([]string{"trace", "-scenario", "fig13", "-point", "0"}, args...), &sb); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(sb.String()), "\n")
}

// TestKnobValidationAtEveryEntryPoint: a bad knob fails the same way on
// every entry point — an error on the CLI, a 400 on /v1/run — before any
// point runs.
func TestKnobValidationAtEveryEntryPoint(t *testing.T) {
	cases := []struct {
		name  string
		flags []string
		body  string // the same knobs as /v1/run JSON fields
		want  string
	}{
		{"unknown protocol", []string{"-protocol", "sleepshed"}, `"protocol":"sleepshed"`, "did you mean sleepsched"},
		{"negative energy", []string{"-energy", "-1"}, `"energy_j":-1`, "initial energy -1 must be finite and non-negative"},
		{"harvest without energy", []string{"-harvest", "0.01"}, `"harvest_w":0.01`, "requires a positive initial energy"},
	}
	entries := []struct {
		name string
		run  func(flags []string) error
	}{
		{"run", func(flags []string) error {
			return run(append([]string{"-experiment", "fig13"}, flags...), io.Discard)
		}},
		{"sweep", func(flags []string) error {
			return runSweep(context.Background(), append([]string{"-experiment", "fig13", "-progress=false"}, flags...), io.Discard, io.Discard)
		}},
		{"trace", func(flags []string) error {
			return run(append([]string{"trace", "-scenario", "fig13"}, flags...), io.Discard)
		}},
	}
	for _, c := range cases {
		for _, e := range entries {
			if err := e.run(c.flags); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: pbbf %s %v: error %v, want it to mention %q", c.name, e.name, c.flags, err, c.want)
			}
		}
		status, lines, _ := serveRun(t, `{"experiment":"fig13","scale":"quick",`+c.body+`}`)
		if body := strings.Join(lines, "\n"); status != http.StatusBadRequest || !strings.Contains(body, c.want) {
			t.Errorf("%s: /v1/run answered %d %s, want 400 mentioning %q", c.name, status, body, c.want)
		}
	}
}

// TestPBBFSpellingsMintDefaultKeys: every spelling of the default protocol
// is the default run — the same PointKeys from a checkpointed sweep and
// from /v1/run, the same trace header — as omitting the protocol. (The
// plain run mode mints no keys; it resolves its knobs through the same
// path.)
func TestPBBFSpellingsMintDefaultKeys(t *testing.T) {
	wantSweep := journalKeys(t, "-experiment", "fig13")
	_, _, wantServe := serveRun(t, `{"experiment":"fig13","scale":"quick"}`)
	wantTrace := traceLines(t)[0]
	for _, spelling := range []string{"pbbf", "PBBF"} {
		if got := journalKeys(t, "-experiment", "fig13", "-protocol", spelling); !slices.Equal(got, wantSweep) {
			t.Errorf("sweep -protocol %s keys differ from the default's", spelling)
		}
		if _, _, got := serveRun(t, `{"experiment":"fig13","scale":"quick","protocol":"`+spelling+`"}`); !slices.Equal(got, wantServe) {
			t.Errorf("/v1/run protocol %s keys differ from the default's", spelling)
		}
		if got := traceLines(t, "-protocol", spelling)[0]; got != wantTrace {
			t.Errorf("trace -protocol %s header %s, want %s", spelling, got, wantTrace)
		}
	}
}

// TestCLIAndServerMintSameKeys: the same knob values mint the same
// PointKeys — so the same Keyer scale segment — on the CLI and on
// /v1/run, whether the knobs are defaults or not.
func TestCLIAndServerMintSameKeys(t *testing.T) {
	cases := []struct {
		flags []string
		body  string
	}{
		{nil, `{"experiment":"fig13","scale":"quick"}`},
		{[]string{"-seed", "3", "-protocol", "SleepSched", "-energy", "1.5", "-harvest", "0.005"},
			`{"experiment":"fig13","scale":"quick","seed":3,"protocol":"sleepsched","energy_j":1.5,"harvest_w":0.005}`},
	}
	for _, c := range cases {
		cli := journalKeys(t, append([]string{"-experiment", "fig13"}, c.flags...)...)
		_, _, served := serveRun(t, c.body)
		if len(cli) == 0 || !slices.Equal(cli, served) {
			t.Errorf("%v: CLI keys %q, /v1/run keys %q", c.flags, cli, served)
		}
	}
}

// pointResults extracts the raw result objects of point lines: the CLI's
// ndjson lines nest them under "point", /v1/run's point lines carry them
// at top level.
func pointResults(t *testing.T, lines []string) []string {
	t.Helper()
	var out []string
	for _, line := range lines {
		var l struct {
			Type   string          `json:"type"`
			Result json.RawMessage `json:"result"`
			Point  *struct {
				Result json.RawMessage `json:"result"`
			} `json:"point"`
		}
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		switch {
		case l.Point != nil:
			out = append(out, string(l.Point.Result))
		case l.Type == "point":
			out = append(out, string(l.Result))
		}
	}
	return out
}

// TestSeedZeroMeansPresetSeed: seed 0 selects the preset's seed on the CLI
// exactly as on /v1/run, so both compute the same fig6 bytes.
func TestSeedZeroMeansPresetSeed(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig6", "-seed", "0", "-format", "ndjson"}, &sb); err != nil {
		t.Fatal(err)
	}
	cli := pointResults(t, strings.Split(strings.TrimSpace(sb.String()), "\n"))
	status, lines, _ := serveRun(t, `{"experiment":"fig6","scale":"quick","seed":0}`)
	if status != http.StatusOK {
		t.Fatalf("/v1/run status %d: %v", status, lines)
	}
	served := pointResults(t, lines)
	if len(cli) == 0 || !slices.Equal(cli, served) {
		t.Fatalf("pbbf -seed 0 and /v1/run seed 0 differ:\ncli    %q\nserved %q", cli, served)
	}
}

// TestTraceHeaderIdentifiesRun: the trace header carries every knob that
// changes the result, so two different runs never share a header.
func TestTraceHeaderIdentifiesRun(t *testing.T) {
	pbbf := traceLines(t)[0]
	sleep := traceLines(t, "-protocol", "sleepsched")[0]
	if pbbf == sleep {
		t.Fatalf("sleepsched and PBBF traces share the header %s", pbbf)
	}
	if !strings.Contains(sleep, `"protocol":"sleepsched"`) {
		t.Fatalf("sleepsched header does not name its protocol: %s", sleep)
	}
	energy := traceLines(t, "-energy", "2", "-harvest", "0.01")[0]
	if !strings.Contains(energy, `"energy_j":2,"harvest_w":0.01,`) {
		t.Fatalf("finite-energy header does not name its energy axis: %s", energy)
	}
}

// TestTraceEnergyMatchesRun: a traced finite-energy point computes the
// same result as that point of the untraced run.
func TestTraceEnergyMatchesRun(t *testing.T) {
	lines := traceLines(t, "-energy", "2")
	var traced struct {
		Type string `json:"type"`
		scenario.Result
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &traced); err != nil || traced.Type != "result" {
		t.Fatalf("last trace line is not a result (%v): %s", err, lines[len(lines)-1])
	}
	got, err := json.Marshal(traced.Result)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-experiment", "fig13", "-energy", "2", "-format", "ndjson"}, &sb); err != nil {
		t.Fatal(err)
	}
	want := pointResults(t, strings.Split(strings.TrimSpace(sb.String()), "\n"))[0]
	if string(got) != want {
		t.Fatalf("trace -energy 2 result %s, run point 0 result %s", got, want)
	}
	if !strings.Contains(want, `"first_death_s"`) {
		t.Fatalf("-energy 2 left the battery infinite: %s", want)
	}
}
