package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"pbbf/internal/dist"
	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
	"pbbf/internal/server"
	"pbbf/internal/sweep"
)

// runSweep implements the sweep subcommand: the same scenario selection
// and output formats as the default run mode, plus periodic structured
// progress telemetry and two long-run modes that compose freely:
//
//   - -checkpoint FILE makes the run resumable: every completed point
//     result is persisted (atomically, after each point) and skipped on
//     restart, and a completed resumed run compacts the journal back to
//     its minimal canonical form.
//   - -distribute ADDR turns the process into a coordinator: instead of
//     computing points locally it serves them to `pbbf worker` processes
//     over HTTP (lease/result/heartbeat; see docs/DISTRIBUTED.md), merges
//     their results, and emits output byte-identical to a local run.
//
// Experiment output goes to out; progress and the resume summary go to
// errOut so `-format json > file` stays parseable.
func runSweep(ctx context.Context, args []string, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("pbbf sweep", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		experiment    = fs.String("experiment", "all", "scenario id (e.g. fig8) or \"all\"")
		scaleName     = fs.String("scale", "quick", "scenario scale: quick, paper, bench, or large")
		format        = fs.String("format", "table", "output format: table, csv, json, or ndjson")
		seed          = fs.Uint64("seed", 1, "root random seed")
		protoName     = fs.String("protocol", "", "broadcast protocol for network scenarios: pbbf (default), sleepsched, or ola")
		energyJ       = fs.Float64("energy", 0, "mean initial battery capacity in joules for network scenarios (0 = infinite battery)")
		harvestW      = fs.Float64("harvest", 0, "constant per-node energy-harvest rate in watts (requires -energy)")
		workers       = fs.Int("workers", runtime.GOMAXPROCS(0), "worker pool size for the point sweep (local mode; -distribute uses -outstanding)")
		checkpoint    = fs.String("checkpoint", "", "checkpoint file for resumable runs (empty = no persistence)")
		progress      = fs.Bool("progress", true, "periodic JSON progress summaries (done/total, rate, ETA) on stderr")
		progressEvery = fs.Int("progress-every", 0, "print the classic per-point progress line every N completed points instead of the periodic summary (0 = summary)")
		distribute    = fs.String("distribute", "", "listen address for a distributed sweep (e.g. :8099); empty = compute locally")
		pprofOn       = fs.Bool("pprof", false, "register unauthenticated /debug/pprof handlers on the coordinator (distributed mode; bind loopback)")
		leaseTTL      = fs.Duration("lease-ttl", dist.DefaultLeaseTTL, "how long workers hold leased points before requeue (distributed mode)")
		outstanding   = fs.Int("outstanding", 256, "max points leased out concurrently (distributed mode)")
		verbose       = fs.Bool("verbose", false, "structured access log for coordinator requests on stderr (distributed mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("sweep: unexpected arguments %v", fs.Args())
	}
	if *distribute != "" {
		// The coordinator computes nothing locally, so a hand-set local
		// pool size would silently do nothing; say so instead.
		explicitWorkers := false
		fs.Visit(func(f *flag.Flag) { explicitWorkers = explicitWorkers || f.Name == "workers" })
		if explicitWorkers {
			fmt.Fprintln(errOut, "sweep: -workers has no effect with -distribute; use -outstanding to bound in-flight leased points")
		}
	}
	scale, err := scenario.ByName(*scaleName)
	if err != nil {
		return err
	}
	scale.Seed = *seed
	if scale.Protocol, err = resolveProtocol(*protoName); err != nil {
		return err
	}
	scale.EnergyJ = *energyJ
	scale.HarvestW = *harvestW
	if err := scale.Validate(); err != nil {
		return err
	}
	if err := validFormat(*format); err != nil {
		return err
	}
	if *workers <= 0 {
		return fmt.Errorf("workers must be positive, got %d", *workers)
	}
	if *outstanding <= 0 {
		return fmt.Errorf("outstanding must be positive, got %d", *outstanding)
	}
	if *leaseTTL <= 0 {
		return fmt.Errorf("lease-ttl must be positive, got %v", *leaseTTL)
	}
	if *progressEvery < 0 {
		return fmt.Errorf("progress-every must be non-negative, got %d", *progressEvery)
	}
	if *pprofOn && *distribute == "" {
		return fmt.Errorf("sweep: -pprof requires -distribute (there is no HTTP surface in local mode)")
	}

	reg := experiments.Registry()
	var selected []scenario.Scenario
	if *experiment == "all" {
		selected = reg.All()
	} else {
		sc, err := reg.ByID(*experiment)
		if err != nil {
			return err
		}
		selected = []scenario.Scenario{sc}
	}

	// Distributed mode: stand up the coordinator endpoints and replace
	// local point computation with queue dispatch. The scenario engine —
	// enumeration, assembly, output — is unchanged, which is what makes
	// the distributed output byte-identical to a local run.
	var coord *dist.Coordinator
	engineWorkers := *workers
	if *distribute != "" {
		coord = dist.NewCoordinator(dist.Config{LeaseTTL: *leaseTTL})
		var accessLog io.Writer
		if *verbose {
			accessLog = errOut
		}
		srv, err := server.New(server.Config{
			Registry:    reg,
			Coordinator: coord,
			AccessLog:   accessLog,
			EnablePprof: *pprofOn,
		})
		if err != nil {
			return err
		}
		l, err := net.Listen("tcp", *distribute)
		if err != nil {
			return err
		}
		fmt.Fprintf(errOut, "sweep: coordinator listening on http://%s\n", l.Addr())
		serveCtx, stopServe := context.WithCancel(context.Background())
		serveErr := make(chan error, 1)
		go func() { serveErr <- srv.ServeListener(serveCtx, l, nil) }()
		defer func() {
			// Let connected workers observe the sweep's end (their next
			// lease poll answers Done) before the listener goes away.
			coord.Close()
			coord.Quiesce(ctx, 2*(*leaseTTL))
			stopServe()
			<-serveErr
		}()
		// In distributed mode the engine pool only tracks in-flight
		// leases (each goroutine blocks in coord.Do, computing nothing),
		// so it is sized by -outstanding, not local cores.
		engineWorkers = *outstanding
	}

	// keyer mints every point key of the sweep; the scale is serialized
	// once, not once per point.
	keyer := scenario.NewKeyer(scale)

	// dispatch computes one point, whose key is key: remotely through the
	// coordinator's queue when distributing, locally otherwise.
	dispatch := func(sc scenario.Scenario, pt scenario.Point, key string, compute func() (scenario.Result, error)) (scenario.Result, error) {
		if coord != nil {
			return coord.Do(ctx, scenario.PointSpec{ScenarioID: sc.ID, Scale: scale, Point: pt, Key: key})
		}
		return compute()
	}

	// Load or create the checkpoint. Identity (experiment, scale, seed,
	// protocol, energy axis) must match: resuming a different workload from
	// recorded results would silently mix runs.
	var cp *scenario.Checkpoint
	if *checkpoint != "" {
		id := scenario.Identity{
			Experiment: *experiment, Scale: *scaleName, Seed: *seed,
			Protocol: scale.Protocol, EnergyJ: scale.EnergyJ, HarvestW: scale.HarvestW,
		}
		cp, err = scenario.LoadCheckpoint(*checkpoint)
		if err != nil {
			return err
		}
		if cp == nil {
			cp = scenario.NewCheckpointFor(id)
		} else if err := cp.MatchesIdentity(id); err != nil {
			return err
		}
		if len(cp.Results) > 0 {
			fmt.Fprintf(errOut, "sweep: checkpoint %s holds %d completed point(s)\n", *checkpoint, len(cp.Results))
		}
	}

	var (
		mu                sync.Mutex
		resumed, computed int
	)
	opts := scenario.RunOptions{Workers: engineWorkers}
	var cpw *scenario.CheckpointWriter
	switch {
	case cp != nil:
		// Completed points append to the journal as they finish: O(1)
		// disk work per point under the writer's own lock, so workers
		// never serialize on rewriting prior results.
		w, err := cp.OpenWriter(*checkpoint)
		if err != nil {
			return err
		}
		cpw = w
		defer w.Close()
		opts.Intercept = func(sc scenario.Scenario, pt scenario.Point, compute func() (scenario.Result, error)) (scenario.Result, bool, error) {
			key := keyer.Key(sc.ID, pt)
			mu.Lock()
			res, ok := cp.Results[key]
			if ok {
				resumed++
			}
			mu.Unlock()
			if ok {
				return res, true, nil
			}
			res, err := dispatch(sc, pt, key, compute)
			if err != nil {
				return res, false, err
			}
			mu.Lock()
			cp.Results[key] = res
			computed++
			mu.Unlock()
			if err := w.Append(key, res); err != nil {
				return res, false, fmt.Errorf("checkpoint %s: %w", *checkpoint, err)
			}
			return res, false, nil
		}
	case coord != nil:
		opts.Intercept = func(sc scenario.Scenario, pt scenario.Point, compute func() (scenario.Result, error)) (scenario.Result, bool, error) {
			res, err := dispatch(sc, pt, keyer.Key(sc.ID, pt), compute)
			return res, false, err
		}
	}
	// Progress: the default is a periodic structured summary (one JSON line
	// with done/total, rate, and ETA every few seconds — plus the per-worker
	// throughput of a distributed sweep), not a line per point; a paper-scale
	// run completes thousands of points and the per-point stream buries the
	// one number an operator wants. -progress-every N restores the classic
	// per-point lines, thinned to every Nth completion.
	var reporter *sweep.Reporter
	switch {
	case *progress && *progressEvery > 0:
		every := *progressEvery
		opts.OnPoint = func(ev scenario.PointEvent) {
			if ev.Done%every != 0 && ev.Done != ev.Total {
				return
			}
			if ev.Point == nil {
				fmt.Fprintf(errOut, "[%d/%d] %s table\n", ev.Done, ev.Total, ev.ScenarioID)
				return
			}
			suffix := ""
			if ev.Cached {
				suffix = " (checkpointed)"
			}
			fmt.Fprintf(errOut, "[%d/%d] %s %s%s\n", ev.Done, ev.Total, ev.ScenarioID, ev.Point.Label(), suffix)
		}
	case *progress:
		reporter = sweep.NewReporter(errOut, 5*time.Second)
		if coord != nil {
			reporter.SetWorkers(func() []sweep.WorkerProgress {
				snap := coord.Snapshot()
				ws := make([]sweep.WorkerProgress, 0, len(snap.Workers))
				for _, w := range snap.Workers {
					ws = append(ws, sweep.WorkerProgress{
						ID:          w.ID,
						Name:        w.Name,
						Alive:       w.Alive,
						Quarantined: w.Quarantined,
						Leased:      w.Leased,
						Completed:   w.Completed,
						Failed:      w.Failed,
					})
				}
				return ws
			})
		}
		opts.OnPoint = func(ev scenario.PointEvent) {
			reporter.Observe(ev.Done, ev.Total, ev.Cached)
		}
	}

	outputs, err := scenario.RunAllCtx(ctx, selected, scale, opts)
	if reporter != nil {
		reporter.Finish()
	}
	if err != nil {
		if cp != nil {
			fmt.Fprintf(errOut, "sweep: interrupted with %d point(s) checkpointed in %s; rerun to resume\n",
				len(cp.Results), *checkpoint)
		}
		return err
	}
	if cp != nil {
		fmt.Fprintf(errOut, "sweep: done — resumed %d point(s) from checkpoint, computed %d\n", resumed, computed)
		// A resumed run has an accumulated journal (append order of the
		// interrupted runs, possibly a truncated torn tail). Compact it
		// to the minimal canonical form now that the run is whole. The
		// writer closes first so the rewrite never races a final append.
		// Compaction is housekeeping: if it fails (disk full), the
		// results are already safe in the append journal, so warn and
		// emit the output rather than discarding a completed run.
		if resumed > 0 {
			cpw.Close()
			if err := cp.WriteFile(*checkpoint); err != nil {
				fmt.Fprintf(errOut, "sweep: WARNING: could not compact checkpoint %s: %v\n", *checkpoint, err)
			} else {
				fmt.Fprintf(errOut, "sweep: compacted checkpoint %s to %d entries\n", *checkpoint, len(cp.Results))
			}
		}
	}
	return emit(out, *format, outputs)
}
