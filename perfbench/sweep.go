package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
)

// seedPool is the number of bench-scale root seeds (1..seedPool) whose
// per-scenario result digests are recorded in digests_bench.json. A run
// sweeps a seeded permutation of the pool, so every sweep it makes has a
// recorded reference.
const seedPool = 24

// warmSeed is the root seed of set-up warm-up sweeps; no measured sweep
// uses it.
const warmSeed = 999_983

//go:embed digests_bench.json
var digestsJSON []byte

// digestFile maps a root seed to each point-based scenario's digest at the
// bench scale.
type digestFile struct {
	Scale   string                       `json:"scale"`
	Digests map[string]map[string]string `json:"digests"`
}

// loadDigests parses the embedded reference digests.
func loadDigests() (digestFile, error) {
	var f digestFile
	if err := json.Unmarshal(digestsJSON, &f); err != nil {
		return f, fmt.Errorf("digests_bench.json: %w", err)
	}
	return f, nil
}

// digestPoints is the digest of one scenario's ordered point results: the
// SHA-256 of their JSON encoding, truncated to 16 bytes.
func digestPoints(pts []scenario.PointOutput) (string, error) {
	data, err := json.Marshal(pts)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16]), nil
}

// digestOutputs digests every point-based scenario of a sweep.
func digestOutputs(outs []scenario.Output) (map[string]string, error) {
	d := make(map[string]string)
	for _, out := range outs {
		if out.Points == nil {
			continue
		}
		sum, err := digestPoints(out.Points)
		if err != nil {
			return nil, err
		}
		d[out.Scenario.ID] = sum
	}
	return d, nil
}

// checkDigests compares a sweep's outputs with the recorded digests of its
// seed. Every point of a scenario whose digest differs (or has none
// recorded) counts as failed.
func checkDigests(t *tally, want map[string]string, seed uint64, outs []scenario.Output) {
	for _, out := range outs {
		if out.Points == nil {
			continue
		}
		got, err := digestPoints(out.Points)
		if err != nil {
			t.fail(len(out.Points), "seed %d %s: %v", seed, out.Scenario.ID, err)
			continue
		}
		if w, ok := want[out.Scenario.ID]; !ok || w != got {
			t.fail(len(out.Points), "seed %d %s: digest %s, recorded %q", seed, out.Scenario.ID, got, w)
		}
	}
}

// seedPlan yields a seeded permutation of the recorded seed pool,
// cycling when a run outlasts it.
type seedPlan struct {
	order []uint64
	next  int
}

func newSeedPlan(cfg config) *seedPlan {
	r := cfg.rng(1)
	p := &seedPlan{}
	for _, i := range r.Perm(seedPool) {
		p.order = append(p.order, uint64(i+1))
	}
	return p
}

func (p *seedPlan) take() uint64 {
	s := p.order[p.next%len(p.order)]
	p.next++
	return s
}

// runSweepBench sweeps the whole registry at the bench scale with one
// engine worker, seed after seed, until the measured phase ends. Each
// point's compute is one operation; its wall time is the latency.
func runSweepBench(ctx context.Context, cfg config) (*outcome, error) {
	recorded, err := loadDigests()
	if err != nil {
		return nil, err
	}
	scs := experiments.Registry().All()
	o := &outcome{}
	_, o.setups, err = repeatSetup(func() (struct{}, error) {
		quick := scenario.Quick()
		quick.Seed = warmSeed
		_, err := scenario.RunAll(scs, quick, 1)
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, fmt.Errorf("sweep_bench set-up: %w", err)
	}

	plan := newSeedPlan(cfg)
	var lat, wallLat latencies
	sweeps := 0
	o.win = openWindow()
	for o.win.elapsed() < cfg.dur {
		s := scenario.Bench()
		s.Seed = plan.take()
		n := 0
		w0, c0 := time.Now(), cpuTime()
		outs, err := scenario.RunAllCtx(ctx, scs, s, scenario.RunOptions{
			Workers: 1,
			Intercept: func(_ scenario.Scenario, _ scenario.Point, compute func() (scenario.Result, error)) (scenario.Result, bool, error) {
				// A point computes start to finish on this goroutine with
				// nothing to wait for, so its service time is its CPU time
				// on the thread. Unlike wall time, that leaves out time the
				// goroutine was runnable but not running.
				runtime.LockOSThread()
				start, cpu0 := time.Now(), threadCPUTime()
				res, err := compute()
				cpu, wall := threadCPUTime()-cpu0, time.Since(start)
				runtime.UnlockOSThread()
				lat.add(cpu)
				wallLat.add(wall)
				n++
				return res, false, err
			},
		})
		o.slices = append(o.slices, slice{ops: n, wall: time.Since(w0), cpu: cpuTime() - c0})
		sweeps++
		// Checked between slices, so the check costs no measured time and
		// no sweep's outputs outlive it.
		o.attempt(n)
		if err != nil {
			o.failBatch(n, "seed %d: %v", s.Seed, err)
		} else {
			checkDigests(&o.tally, recorded.Digests[strconv.FormatUint(s.Seed, 10)], s.Seed, outs)
		}
	}
	o.win.close()
	o.lat = lat.sorted()
	wl := wallLat.sorted()
	o.diag = map[string]any{"sweeps": sweeps, "wall_p50_ms": percentile(wl, 50), "wall_p90_ms": percentile(wl, 90)}
	return o, nil
}

// recordDigests computes the reference digests of every pooled seed at the
// bench scale and writes them to path.
func recordDigests(path string) error {
	scs := experiments.Registry().All()
	f := digestFile{Scale: "bench", Digests: make(map[string]map[string]string)}
	for seed := uint64(1); seed <= seedPool; seed++ {
		s := scenario.Bench()
		s.Seed = seed
		outs, err := scenario.RunAll(scs, s, 0)
		if err != nil {
			return err
		}
		if f.Digests[strconv.FormatUint(seed, 10)], err = digestOutputs(outs); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
