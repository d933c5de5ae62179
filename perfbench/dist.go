package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"pbbf/internal/dist"
	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
	"pbbf/internal/server"
)

const (
	// distOutstanding bounds the points the engine keeps submitted to the
	// coordinator at once (the `sweep -outstanding` knob).
	distOutstanding = 8
	// distBatch is the worker's lease size.
	distBatch = 4
	// distRetry is how long the worker waits after an empty lease. The
	// queue empties only between sweeps, so a short delay keeps idle
	// polling out of the measured time.
	distRetry = 2 * time.Millisecond
)

// distCluster is a coordinator behind the server's work endpoints and one
// in-process worker computing with one goroutine, over loopback.
type distCluster struct {
	coord      *dist.Coordinator
	cancel     context.CancelFunc
	serveDone  chan error
	workerDone chan error
}

// startCluster starts the coordinator's server and the worker, whose HTTP
// requests go through transport and whose points are computed through
// registry (which must hold the same scenarios as the coordinator's).
func startCluster(transport http.RoundTripper, registry *scenario.Registry) (*distCluster, error) {
	coord := dist.NewCoordinator(dist.Config{RetryDelay: distRetry})
	srv, err := server.New(server.Options{Registry: experiments.Registry(), Coordinator: coord})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &distCluster{coord: coord, cancel: cancel, serveDone: make(chan error, 1), workerDone: make(chan error, 1)}
	go func() { c.serveDone <- srv.ServeListener(ctx, l, nil) }()
	client := &http.Client{Timeout: 30 * time.Second, Transport: transport}
	go func() {
		c.workerDone <- dist.RunWorker(ctx, dist.WorkerConfig{
			CoordinatorURL: "http://" + l.Addr().String(),
			Registry:       registry,
			Name:           "perfbench",
			Parallelism:    1,
			Batch:          distBatch,
			Client:         client,
		})
	}()
	return c, nil
}

// sweep runs the registry at one scale through the coordinator and
// returns the outputs with the number of points computed.
func (c *distCluster) sweep(ctx context.Context, s scenario.Scale) ([]scenario.Output, int, error) {
	n := 0
	outs, err := scenario.RunAllCtx(ctx, experiments.Registry().All(), s, scenario.RunOptions{
		Workers: distOutstanding,
		Intercept: func(sc scenario.Scenario, pt scenario.Point, _ func() (scenario.Result, error)) (scenario.Result, bool, error) {
			res, err := c.coord.Do(ctx, scenario.NewPointSpec(sc, s, pt))
			return res, false, err
		},
		OnPoint: func(ev scenario.PointEvent) {
			if ev.Point != nil {
				n++
			}
		},
	})
	return outs, n, err
}

// stop ends the sweep: the worker sees Done on its next lease and exits,
// then the server shuts down. It waits for both.
func (c *distCluster) stop() error {
	c.coord.Close()
	c.coord.Quiesce(context.Background(), 5*time.Second)
	werr := <-c.workerDone
	c.cancel()
	serr := <-c.serveDone
	if werr != nil {
		return fmt.Errorf("worker: %w", werr)
	}
	return serr
}

// distRun is one distributed sweep kept for checking.
type distRun struct {
	scale scenario.Scale
	outs  []scenario.Output
	err   error
}

// checkDistRuns requires each distributed sweep's JSON output to be
// byte-equal to a local serial sweep of the same scale. A mismatch fails
// every point of the sweep.
func checkDistRuns(t *tally, runs []distRun) error {
	scs := experiments.Registry().All()
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		local, err := scenario.RunAll(scs, r.scale, 1)
		if err != nil {
			return err
		}
		if msg := outputsDiffer(r.outs, local); msg != "" {
			t.fail(countPoints(r.outs), "seed %d: %s", r.scale.Seed, msg)
		}
	}
	return nil
}

// outputsDiffer compares two sweeps' JSON encodings byte for byte.
func outputsDiffer(got, want []scenario.Output) string {
	a, err := json.Marshal(got)
	if err != nil {
		return err.Error()
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err.Error()
	}
	if !bytes.Equal(a, b) {
		return fmt.Sprintf("distributed output (%d bytes) differs from a local serial sweep (%d bytes)", len(a), len(b))
	}
	return ""
}

func countPoints(outs []scenario.Output) int {
	n := 0
	for _, out := range outs {
		n += len(out.Points)
	}
	return n
}
