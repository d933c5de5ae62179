package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pbbf/internal/scenario"
)

// streamRegistry holds "warm", twelve instant points, and "gated", one
// point whose computation signals started and then blocks until release
// closes. Run as "all", the gated point comes after every warm point.
func streamRegistry(started chan<- struct{}, release <-chan struct{}) *scenario.Registry {
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.Scenario{
		ID: "warm", Title: "warm", Artifact: "extension", Summary: "instant points",
		Params: []scenario.ParamDoc{{Name: "x", Desc: "x"}},
		XLabel: "x", YLabel: "y",
		Points: func(scenario.Scale) ([]scenario.Point, error) {
			pts := make([]scenario.Point, 12)
			for i := range pts {
				x := float64(i)
				pts[i] = scenario.Point{Series: "a", X: x, Params: map[string]float64{"x": x}}
			}
			return pts, nil
		},
		RunPoint: func(_ scenario.Scale, pt scenario.Point) (scenario.Result, error) {
			return scenario.Result{Y: pt.X, Delivery: 1}, nil
		},
	})
	reg.MustRegister(scenario.Scenario{
		ID: "gated", Title: "gated", Artifact: "extension", Summary: "blocks until released",
		Params: []scenario.ParamDoc{{Name: "x", Desc: "x"}},
		XLabel: "x", YLabel: "y",
		Points: func(scenario.Scale) ([]scenario.Point, error) {
			return []scenario.Point{{Series: "g", X: 1, Params: map[string]float64{"x": 1}}}, nil
		},
		RunPoint: func(scenario.Scale, scenario.Point) (scenario.Result, error) {
			started <- struct{}{}
			<-release
			return scenario.Result{Y: 1, Delivery: 1}, nil
		},
	})
	return reg
}

// openRun posts a run and returns its open NDJSON stream, closed when the
// test ends. The client gives up after a few seconds: a server that holds
// back even the response header while a computation blocks would
// otherwise hang the test instead of failing it.
func openRun(t *testing.T, url, body string) *bufio.Reader {
	t.Helper()
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	return bufio.NewReader(resp.Body)
}

// readLines reads n NDJSON lines, failing the test if they do not all
// arrive within a few seconds: a line held in the server's buffer while a
// computation blocks never arrives until it ends.
func readLines(t *testing.T, r *bufio.Reader, n int) []map[string]any {
	t.Helper()
	type result struct {
		lines []map[string]any
		err   error
	}
	got := make(chan result, 1)
	go func() {
		var res result
		for len(res.lines) < n {
			raw, err := r.ReadBytes('\n')
			if err != nil {
				res.err = err
				break
			}
			var line map[string]any
			if res.err = json.Unmarshal(raw, &line); res.err != nil {
				break
			}
			res.lines = append(res.lines, line)
		}
		got <- res
	}()
	select {
	case res := <-got:
		if res.err != nil {
			t.Fatalf("after %d of %d lines: %v", len(res.lines), n, res.err)
		}
		return res.lines
	case <-time.After(5 * time.Second):
		t.Fatalf("%d lines did not arrive while a computation was blocked", n)
		return nil
	}
}

// TestRunStreamsLinesBeforeBlockedCompute: while a run waits on a
// computation, the client has already received the header and every line
// that precedes the blocked point — whether the run leads the computation
// or joins another run's.
func TestRunStreamsLinesBeforeBlockedCompute(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run("workers="+strconv.Itoa(workers), func(t *testing.T) {
			started := make(chan struct{}, 1)
			release := make(chan struct{})
			srv, err := New(Options{Registry: streamRegistry(started, release)})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv)
			t.Cleanup(ts.Close)
			releaseOnce := sync.OnceFunc(func() { close(release) })
			t.Cleanup(releaseOnce)
			postRun(t, ts, `{"experiment":"warm","scale":"quick"}`) // cache the warm points

			all := `{"experiment":"all","scale":"quick","workers":` + strconv.Itoa(workers) + `}`
			leader := openRun(t, ts.URL, all)
			<-started
			lines := readLines(t, leader, 13)
			if lines[0]["type"] != "run" || lines[12]["type"] != "point" || lines[12]["cached"] != true {
				t.Fatalf("leader: header %v, last warm line %v", lines[0], lines[12])
			}

			// A second run joins the blocked computation and must stream
			// its earlier lines the same way.
			joiner := openRun(t, ts.URL, all)
			lines = readLines(t, joiner, 13)
			if lines[0]["type"] != "run" || lines[12]["x"] != float64(11) {
				t.Fatalf("joiner: header %v, last warm line %v", lines[0], lines[12])
			}
			if joins := srv.flight.Joins(); joins != 1 {
				t.Fatalf("second run did not join the computation (joins %d)", joins)
			}

			releaseOnce()
			for name, r := range map[string]*bufio.Reader{"leader": leader, "joiner": joiner} {
				rest := readLines(t, r, 2)
				if rest[0]["type"] != "point" || rest[0]["scenario"] != "gated" || rest[1]["type"] != "done" {
					t.Fatalf("%s tail: %v", name, rest)
				}
				if rest[0]["cached"] != (name == "joiner") {
					t.Fatalf("%s gated line cached=%v", name, rest[0]["cached"])
				}
			}
		})
	}
}

// flushCounter counts the flushes a handler asks of its response writer.
type flushCounter struct {
	http.ResponseWriter
	flushes int
}

func (f *flushCounter) Flush() {
	f.flushes++
	f.ResponseWriter.(http.Flusher).Flush()
}

// TestAllHitRunFlushesAtMostTwice: a run answered entirely from the store
// is not flushed line by line.
func TestAllHitRunFlushesAtMostTwice(t *testing.T) {
	srv, err := New(Options{Registry: streamRegistry(nil, nil)})
	if err != nil {
		t.Fatal(err)
	}
	run := func() (*httptest.ResponseRecorder, int) {
		rec := httptest.NewRecorder()
		w := &flushCounter{ResponseWriter: rec}
		req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(`{"experiment":"warm","scale":"quick"}`))
		srv.ServeHTTP(w, req)
		return rec, w.flushes
	}
	run()
	rec, flushes := run()
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 14 || !strings.Contains(lines[13], `"cached_points":12`) {
		t.Fatalf("all-hit run: %d lines, last %s", len(lines), lines[len(lines)-1])
	}
	if flushes > 2 {
		t.Fatalf("all-hit 12-point run flushed %d times, want at most 2", flushes)
	}
}

// BenchmarkRunAllHit serves a 12-point run whose every point is a memory
// hit, over loopback HTTP: the serving hot path with no simulation.
func BenchmarkRunAllHit(b *testing.B) {
	srv, err := New(Options{Registry: streamRegistry(nil, nil)})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const body = `{"experiment":"warm","scale":"quick","workers":1}`
	post := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	post()
	b.ReportAllocs()
	for b.Loop() {
		post()
	}
}
