package dist_test

// Distributed-vs-local equivalence: the acceptance property of the
// subsystem. The same sweep run (a) locally, (b) through a coordinator
// with one worker, and (c) through a coordinator with three workers — one
// of them killed mid-run, its lease requeued — must produce byte-identical
// JSON output. The scenario engine assembles output from merged results by
// index, and every point is a pure function of its spec, so worker count
// and failure order must be invisible in the bytes.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pbbf/internal/dist"
	"pbbf/internal/scenario"
	"pbbf/internal/server"
)

// eqRegistry builds a registry whose single scenario has enough points to
// keep three workers busy and a per-point delay long enough for a
// mid-run kill to land while leases are outstanding.
func eqRegistry(points int, delay time.Duration) *scenario.Registry {
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.Scenario{
		ID: "eq", Title: "equivalence scenario", Artifact: "extension",
		Summary: "distributed-vs-local equivalence workload",
		Params:  []scenario.ParamDoc{{Name: "p", Desc: "probability knob"}},
		XLabel:  "x", YLabel: "y",
		Points: func(s scenario.Scale) ([]scenario.Point, error) {
			pts := make([]scenario.Point, 0, points)
			for i := 0; i < points; i++ {
				pts = append(pts, scenario.Point{
					Series: fmt.Sprintf("s%d", i%3),
					X:      float64(i),
					Params: map[string]float64{"p": float64(i) / float64(points)},
				})
			}
			return pts, nil
		},
		RunPoint: func(s scenario.Scale, pt scenario.Point) (scenario.Result, error) {
			time.Sleep(delay)
			// Awkward floats on purpose: byte identity must survive the
			// JSON round-trip through the wire protocol.
			seed := scenario.PointSeed(s.Seed, scenario.FloatBits(pt.X))
			y := math.Sin(pt.X*0.37+float64(seed%1000)/997) / 3
			return scenario.Result{
				Y:        y,
				EnergyJ:  y * 0.123456789,
				LatencyS: pt.X / 7,
				Delivery: 1 - pt.Params["p"]/2,
			}, nil
		},
	})
	return reg
}

func marshalOutputs(t *testing.T, outs []scenario.Output) []byte {
	t.Helper()
	data, err := json.MarshalIndent(outs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runDistributed executes the registry's sweep through a coordinator over
// real HTTP with the given number of workers. With killOne, the first
// worker is cancelled as soon as it holds a lease and some results have
// landed — simulating a worker death mid-run; its unreported points are
// requeued on lease expiry and finished by the survivors.
func runDistributed(t *testing.T, reg *scenario.Registry, s scenario.Scale, workers int, killOne bool) []byte {
	t.Helper()
	coord := dist.NewCoordinator(dist.Config{LeaseTTL: 300 * time.Millisecond})
	srv, err := server.New(server.Options{Registry: reg, Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	kill := make([]context.CancelFunc, workers)
	for i := 0; i < workers; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		kill[i] = cancel
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = dist.RunWorker(ctx, dist.WorkerConfig{
				CoordinatorURL: ts.URL,
				Registry:       reg,
				Name:           fmt.Sprintf("eqw%d", i),
				Parallelism:    2,
				Batch:          4,
				RetryAttempts:  3,
				RetryDelay:     50 * time.Millisecond,
			})
		}()
	}
	if killOne {
		go func() {
			// Kill eqw0 once it demonstrably holds work and the sweep is
			// mid-flight, so its lease dies unreported and must requeue.
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				snap := coord.Snapshot()
				for _, w := range snap.Workers {
					if w.Name == "eqw0" && w.Leased > 0 && snap.Queue.Done > 0 {
						kill[0]()
						return
					}
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	outs, err := scenario.RunAllCtx(context.Background(), reg.All(), s, scenario.RunOptions{
		Workers: 64,
		Intercept: func(sc scenario.Scenario, pt scenario.Point, _ func() (scenario.Result, error)) (scenario.Result, bool, error) {
			res, err := coord.Do(context.Background(), scenario.NewPointSpec(sc, s, pt))
			return res, false, err
		},
	})
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	coord.Close()
	coord.Quiesce(context.Background(), 5*time.Second)
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d exited with error: %v", i, werr)
		}
	}
	return marshalOutputs(t, outs)
}

func TestDistributedMatchesLocalByteForByte(t *testing.T) {
	reg := eqRegistry(42, 3*time.Millisecond)
	s := scenario.Quick()
	s.Seed = 7

	localOuts, err := scenario.RunAll(reg.All(), s, 4)
	if err != nil {
		t.Fatal(err)
	}
	local := marshalOutputs(t, localOuts)

	oneWorker := runDistributed(t, reg, s, 1, false)
	if !bytes.Equal(local, oneWorker) {
		t.Fatalf("1-worker distributed output differs from local:\nlocal:\n%s\ndist:\n%s", local, oneWorker)
	}

	threeWithKill := runDistributed(t, reg, s, 3, true)
	if !bytes.Equal(local, threeWithKill) {
		t.Fatalf("3-worker (one killed) output differs from local:\nlocal:\n%s\ndist:\n%s", local, threeWithKill)
	}
}

// TestWorkerReregistersAfterCoordinatorRestart: a restarted coordinator
// (the -checkpoint resume story) loses its worker registrations; running
// workers must respond to the 404 unknown-worker by re-registering and
// carrying on, not by exiting.
func TestWorkerReregistersAfterCoordinatorRestart(t *testing.T) {
	reg := eqRegistry(20, time.Millisecond)
	s := scenario.Quick()
	newHandler := func(coord *dist.Coordinator) *server.Server {
		srv, err := server.New(server.Options{Registry: reg, Coordinator: coord})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	coord1 := dist.NewCoordinator(dist.Config{LeaseTTL: time.Second})
	var (
		hmu     sync.Mutex
		handler = newHandler(coord1)
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hmu.Lock()
		h := handler
		hmu.Unlock()
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	workerDone := make(chan error, 1)
	go func() {
		workerDone <- dist.RunWorker(context.Background(), dist.WorkerConfig{
			CoordinatorURL: ts.URL, Registry: reg, Name: "phoenix",
			Parallelism: 1, Batch: 1,
			RetryAttempts: 3, RetryDelay: 20 * time.Millisecond,
		})
	}()

	runPoints := func(coord *dist.Coordinator, from, to int) {
		t.Helper()
		sc := reg.All()[0]
		pts, err := sc.Points(s)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, to-from)
		for i := from; i < to; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i-from] = coord.Do(context.Background(), scenario.NewPointSpec(sc, s, pts[i]))
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("point %d: %v", from+i, err)
			}
		}
	}
	runPoints(coord1, 0, 3)

	// "Restart": a fresh coordinator that never saw the worker takes over
	// the same address.
	coord2 := dist.NewCoordinator(dist.Config{LeaseTTL: time.Second})
	hmu.Lock()
	handler = newHandler(coord2)
	hmu.Unlock()
	runPoints(coord2, 3, 6) // only completes if the worker re-registered

	snap := coord2.Snapshot()
	if len(snap.Workers) == 0 || snap.Workers[0].Name != "phoenix" {
		t.Fatalf("worker did not re-register with the restarted coordinator: %+v", snap.Workers)
	}
	coord2.Close()
	coord2.Quiesce(context.Background(), 5*time.Second)
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker exited with error across the restart: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never exited")
	}
	coord1.Close()
}

// TestWorkerSurfacesCoordinatorErrors pins the worker's terminal error
// paths: an unreachable coordinator and a quarantine rejection both end
// the worker with a descriptive error instead of a silent spin.
func TestWorkerSurfacesCoordinatorErrors(t *testing.T) {
	err := dist.RunWorker(context.Background(), dist.WorkerConfig{
		CoordinatorURL: "http://127.0.0.1:1", // reserved port, nothing listens
		Registry:       eqRegistry(1, 0),
		RetryAttempts:  2,
		RetryDelay:     10 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "register") {
		t.Fatalf("unreachable coordinator: %v", err)
	}

	if err := dist.RunWorker(context.Background(), dist.WorkerConfig{}); err == nil {
		t.Fatal("missing coordinator URL accepted")
	}
	if err := dist.RunWorker(context.Background(), dist.WorkerConfig{CoordinatorURL: "http://x"}); err == nil {
		t.Fatal("nil registry accepted")
	}
}

// TestWorkerComputesFailingPointGracefully: a point whose RunPoint errors
// is reported as a failure, retried per the coordinator's budget, and the
// sweep fails with the point's error while the worker exits cleanly.
func TestWorkerReportsPointFailures(t *testing.T) {
	reg := scenario.NewRegistry()
	reg.MustRegister(scenario.Scenario{
		ID: "boom", Title: "failing scenario", Artifact: "extension",
		Summary: "always fails",
		Params:  []scenario.ParamDoc{{Name: "p", Desc: "unused"}},
		XLabel:  "x", YLabel: "y",
		Points: func(scenario.Scale) ([]scenario.Point, error) {
			return []scenario.Point{{Series: "a", X: 1, Params: map[string]float64{"p": 1}}}, nil
		},
		RunPoint: func(scenario.Scale, scenario.Point) (scenario.Result, error) {
			return scenario.Result{}, fmt.Errorf("deterministic explosion")
		},
	})
	coord := dist.NewCoordinator(dist.Config{
		LeaseTTL: time.Second, MaxPointAttempts: 2, MaxWorkerFailures: 100,
	})
	srv, err := server.New(server.Options{Registry: reg, Coordinator: coord})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	workerDone := make(chan error, 1)
	go func() {
		workerDone <- dist.RunWorker(context.Background(), dist.WorkerConfig{
			CoordinatorURL: ts.URL, Registry: reg, Parallelism: 1,
			RetryAttempts: 2, RetryDelay: 10 * time.Millisecond,
		})
	}()

	s := scenario.Quick()
	_, err = scenario.RunAllCtx(context.Background(), reg.All(), s, scenario.RunOptions{
		Workers: 4,
		Intercept: func(sc scenario.Scenario, pt scenario.Point, _ func() (scenario.Result, error)) (scenario.Result, bool, error) {
			res, err := coord.Do(context.Background(), scenario.NewPointSpec(sc, s, pt))
			return res, false, err
		},
	})
	if err == nil || !strings.Contains(err.Error(), "deterministic explosion") {
		t.Fatalf("sweep error: %v", err)
	}
	coord.Close()
	coord.Quiesce(context.Background(), 5*time.Second)
	select {
	case werr := <-workerDone:
		if werr != nil {
			t.Fatalf("worker exit: %v", werr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker never exited")
	}
}
