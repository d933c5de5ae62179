package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/dist"
	"pbbf/internal/experiments"
	"pbbf/internal/mac"
	"pbbf/internal/netsim"
	"pbbf/internal/rng"
	"pbbf/internal/scenario"
	"pbbf/internal/sim"
	"pbbf/internal/topo"
	"pbbf/internal/trace"
)

// The traced run splits its measured time between three segments, one
// per workload family, so every per-layer metric is measured in every
// traced run whatever workload it is invoked for.
const (
	kernelShare = 0.4
	serveShare  = 0.3
	// directRuns is how many Section 5 fields the direct topology and
	// kernel pass builds and simulates.
	directRuns = 40
)

// tracedMix is the tier schedule of the traced serving segment: memory
// hits, disk hits and computes side by side.
var tracedMix = [3]float64{0.6, 0.2, 0.2}

// countingProvider is a trace.Provider that counts events by kind and
// keeps nothing else. Each simulated run gets its own sink; totals are
// summed when the segment ends.
type countingProvider struct {
	mu    sync.Mutex
	sinks []*countSink
	runs  atomic.Int64
}

type countSink struct{ n [256]uint64 }

func (s *countSink) Record(ev trace.Event) { s.n[ev.Kind]++ }

func (p *countingProvider) BeginRun(int) trace.Sink {
	s := &countSink{}
	p.mu.Lock()
	p.sinks = append(p.sinks, s)
	p.mu.Unlock()
	p.runs.Add(1)
	return s
}

// count returns the total events of the given kinds.
func (p *countingProvider) count(kinds ...trace.Kind) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n uint64
	for _, s := range p.sinks {
		for _, k := range kinds {
			n += s.n[k]
		}
	}
	return float64(n)
}

// family names the experiment engine that computes a scenario's points,
// judged from outside: a point that opened trace runs is a netsim point,
// the percolation and gossip studies are named by ID, and any other point
// that fired simulation events ran on idealsim.
func family(id string, traced bool, events uint64) string {
	switch {
	case traced:
		return "netsim"
	case id == "fig6" || id == "fig7":
		return "percolation"
	case id == "extgossip":
		return "gossip"
	case events > 0:
		return "idealsim"
	}
	return "other"
}

var families = []string{"netsim", "idealsim", "percolation", "gossip"}

// layersResult is the traced run's report.
type layersResult struct {
	outcome
	metrics map[string]metric
	diag    map[string]any
}

func (l *layersResult) set(name, unit string, v float64) {
	l.metrics[name] = metric{Value: v, Unit: unit}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runLayers is the traced run: the kernel, serving and distributed
// segments under external instrumentation, each span recorded from the
// benchmark's side of a layer boundary. Spans are written to the run's
// scratch directory's parent when the run ends.
func runLayers(ctx context.Context, cfg config, workloadName string) (*layersResult, error) {
	lr := &layersResult{metrics: make(map[string]metric), diag: make(map[string]any)}
	rec := newSpanRecorder()
	lr.win = openWindow()
	if err := tracedKernel(ctx, cfg, time.Duration(kernelShare*float64(cfg.dur)), rec, lr); err != nil {
		return nil, err
	}
	if err := directKernel(cfg, lr); err != nil {
		return nil, err
	}
	if err := tracedServe(ctx, cfg, time.Duration(serveShare*float64(cfg.dur)), rec, lr); err != nil {
		return nil, err
	}
	if err := tracedDist(ctx, cfg, cfg.dur-time.Duration((kernelShare+serveShare)*float64(cfg.dur)), lr); err != nil {
		return nil, err
	}
	lr.win.close()
	path := filepath.Join(filepath.Dir(cfg.scratch), "spans-"+workloadName+"-"+strconv.FormatUint(cfg.seed, 10)+".ndjson")
	if err := rec.write(path); err != nil {
		return nil, err
	}
	lr.diag["spans"] = len(rec.all())
	return lr, nil
}

// tracedKernel sweeps the registry at the bench scale in pairs: the same
// seed once untraced and once under the counting provider with a span
// around every point. The untraced half gives the runtime counters and
// the tracing overhead's baseline.
func tracedKernel(ctx context.Context, cfg config, budget time.Duration, rec *spanRecorder, lr *layersResult) error {
	recorded, err := loadDigests()
	if err != nil {
		return err
	}
	scs := experiments.Registry().All()
	warm := scenario.Quick()
	warm.Seed = warmSeed
	if _, err := scenario.RunAll(scs, warm, 1); err != nil {
		return err
	}
	prov := &countingProvider{}
	plan := newSeedPlan(cfg)
	var (
		plainCPU, tracedCPU time.Duration
		plainPts, tracedPts int
		allocs, gcCPU, cpu  float64
		sweepWall           time.Duration
		pointWall           time.Duration
		eventWall           time.Duration
		events              uint64
		netPoints           int
		famWall             = make(map[string]time.Duration)
	)
	start := time.Now()
	for pair := 0; pair == 0 || time.Since(start) < budget; pair++ {
		s := scenario.Bench()
		s.Seed = plan.take()
		want := recorded.Digests[strconv.FormatUint(s.Seed, 10)]

		before := readRuntime(metricAllocs, metricGCCPU, metricTotalCPU)
		c0 := cpuTime()
		outs, err := scenario.RunAll(scs, s, 1)
		plainCPU += cpuTime() - c0
		after := readRuntime(metricAllocs, metricGCCPU, metricTotalCPU)
		allocs += after[0] - before[0]
		gcCPU += after[1] - before[1]
		cpu += after[2] - before[2]
		n := countPoints(outs)
		plainPts += n
		lr.attempt(n)
		if err != nil {
			lr.failBatch(n, "untraced seed %d: %v", s.Seed, err)
		} else {
			checkDigests(&lr.tally, want, s.Seed, outs)
		}

		sweepID := rec.begin()
		sweepStart := time.Now()
		c0 = cpuTime()
		outs, err = scenario.RunAllCtx(trace.WithProvider(ctx, prov), scs, s, scenario.RunOptions{
			Workers: 1,
			Intercept: func(sc scenario.Scenario, _ scenario.Point, compute func() (scenario.Result, error)) (scenario.Result, bool, error) {
				runs0, fired0 := prov.runs.Load(), sim.TotalFired()
				t0 := time.Now()
				res, err := compute()
				t1 := time.Now()
				rec.add("point."+sc.ID, sweepID, t0, t1)
				fired := sim.TotalFired() - fired0
				traced := prov.runs.Load() > runs0
				d := t1.Sub(t0)
				pointWall += d
				famWall[family(sc.ID, traced, fired)] += d
				if fired > 0 {
					events += fired
					eventWall += d
				}
				if traced {
					netPoints++
				}
				return res, false, err
			},
		})
		tracedCPU += cpuTime() - c0
		sweepEnd := time.Now()
		rec.finish(sweepID, "sweep", sweepStart, sweepEnd)
		sweepWall += sweepEnd.Sub(sweepStart)
		n = countPoints(outs)
		tracedPts += n
		lr.attempt(n)
		if err != nil {
			lr.failBatch(n, "traced seed %d: %v", s.Seed, err)
		} else {
			checkDigests(&lr.tally, want, s.Seed, outs)
		}
	}

	np := float64(netPoints)
	tx := prov.count(trace.KindTxData, trace.KindTxATIM)
	rx := prov.count(trace.KindRxData, trace.KindRxATIM, trace.KindDuplicate,
		trace.KindDropCollision, trace.KindDropFade, trace.KindDropLinkFade)
	dup := prov.count(trace.KindDuplicate)
	lr.set("sim.events_per_point", "count", ratio(float64(events), float64(tracedPts)))
	lr.set("sim.ns_per_event", "ns", ratio(float64(eventWall.Nanoseconds()), float64(events)))
	lr.set("phy.tx_per_point", "count", ratio(tx, np))
	lr.set("phy.rx_per_tx", "count", ratio(rx, tx))
	lr.set("phy.collision_frac", "fraction", ratio(prov.count(trace.KindDropCollision), rx))
	lr.set("mac.radio_switches_per_point", "count", ratio(prov.count(trace.KindWake, trace.KindSleep), np))
	lr.set("mac.atim_per_point", "count", ratio(prov.count(trace.KindTxATIM), np))
	lr.set("protocol.dup_frac", "fraction", ratio(dup, dup+prov.count(trace.KindDeliver)))
	lr.set("energy.events_per_point", "count", ratio(prov.count(trace.KindEnergy), np))
	for _, f := range families {
		lr.set(f+".share", "fraction", ratio(float64(famWall[f]), float64(pointWall)))
	}
	lr.set("scenario.engine_frac", "fraction", 1-ratio(float64(pointWall), float64(sweepWall)))
	lr.set("runtime.allocs_per_point", "count", ratio(allocs, float64(plainPts)))
	lr.set("runtime.gc_cpu_frac", "fraction", ratio(gcCPU, cpu))
	plainPerPt := ratio(float64(plainCPU.Nanoseconds()), float64(plainPts))
	tracedPerPt := ratio(float64(tracedCPU.Nanoseconds()), float64(tracedPts))
	lr.set("trace.cpu_ratio", "ratio", ratio(tracedPerPt, plainPerPt))
	lr.diag["kernel"] = map[string]any{
		"pairs":                  plan.next,
		"untraced_cpu_ms_per_op": plainPerPt / 1e6,
		"traced_cpu_ms_per_op":   tracedPerPt / 1e6,
		"traced_points_per_s":    ratio(float64(tracedPts), sweepWall.Seconds()),
		"netsim_points":          netPoints,
		"other_share":            ratio(float64(famWall["other"]), float64(pointWall)),
	}
	return nil
}

// directKernel times the topology builder and the pooled kernel directly
// on Section 5 fields of the bench sweep's size: 100 nodes at the Table 2
// density, simulated for the bench horizon.
func directKernel(cfg config, lr *layersResult) error {
	s := scenario.Bench()
	scratch := topo.NewScratch()
	pool := netsim.NewRunPool()
	var build, run time.Duration
	r0 := cfg.rng(4)
	for i := 0; i < directRuns; i++ {
		seed := freshSeed(r0)
		r := rng.New(seed)
		t0 := time.Now()
		field, err := scratch.ConnectedRandomDisk(topo.DiskConfig{
			N:     s.NetNodes,
			Range: 30,
			Area:  topo.AreaForDensity(s.NetNodes, 30, 10),
		}, r, 500)
		if err != nil {
			return err
		}
		t1 := time.Now()
		_, err = pool.Run(netsim.Config{
			Topo:      field,
			Source:    topo.NodeID(r.Intn(field.N())),
			MAC:       mac.DefaultConfig(core.Params{P: 0.25, Q: 0.25}),
			Lambda:    0.01,
			Duration:  s.NetDuration,
			K:         1,
			TrackHops: s.NetTrackHops,
			Seed:      seed,
		})
		if err != nil {
			return err
		}
		build += t1.Sub(t0)
		run += time.Since(t1)
	}
	lr.set("topo.build_ms", "ms", float64(build.Nanoseconds())/1e6/directRuns)
	lr.set("netsim.run_ms", "ms", float64(run.Nanoseconds())/1e6/directRuns)
	return nil
}

const (
	// tracedColdSeeds is how many seeds per client the traced serving
	// segment writes before the restart and first touches during it; once
	// a client has used them all, its disk-hit slots become memory hits.
	tracedColdSeeds = 160
	// tracedFreshSeeds is how many fresh seeds per client the traced
	// serving segment computes; once a client has used them all, its
	// compute slots become memory hits.
	tracedFreshSeeds = 2048
)

// tracedMem sizes the traced segment's memory tier so that no key is ever
// evicted, and every scheduled memory hit is one: each shard can hold
// every key the segment can write, however the keys hash. In a smaller
// tier a hot seed left unrequested for a few hundred requests falls out
// of its shard's LRU list, and its next request is read from disk.
func tracedMem() (memSize, error) {
	keys, err := pointKeys(1)
	if err != nil {
		return memSize{}, err
	}
	seeds := serveClients * (workingSet + tracedColdSeeds + tracedFreshSeeds)
	return memSize{memShards, memShards * seeds * len(keys)}, nil
}

// tracedServe runs the mixed-tier serving schedule: two closed-loop
// clients whose seeded schedules interleave memory hits (seeds promoted
// during set-up), disk hits (the first touch, after the restart, of a seed
// written before it) and computes (fresh seeds). Both store tiers are
// wrapped in timing probes and every request is a root span whose store
// calls are its children.
func tracedServe(ctx context.Context, cfg config, budget time.Duration, rec *spanRecorder, lr *layersResult) error {
	owner := &sync.Map{}
	mem, err := tracedMem()
	if err != nil {
		return err
	}
	site, err := setUpSite(ctx, cfg, tierMem, mem, tracedColdSeeds, rec, owner)
	if err != nil {
		return err
	}
	defer site.close()
	node := site.node
	memBefore, diskBefore := node.mem.counts(), node.disk.counts()
	bytesBefore := node.disk.Stats().BytesWritten

	served := make([][]servedRequest, serveClients)
	reqIDs := make([][]int, serveClients)
	var bytesServed atomic.Int64
	start := time.Now()
	err = site.eachClient(func(c int) error {
		schedule := tierSchedule(cfg.rng(uint64(300+c)), tracedMix, 1<<16)
		hot, fresh := cfg.rng(uint64(400+c)), cfg.rng(uint64(500+c))
		cold, computed := site.cold[c], 0
		for i := 0; time.Since(start) < budget && i < len(schedule); i++ {
			want := schedule[i]
			if want == tierDisk && len(cold) == 0 || want == tierCompute && computed == tracedFreshSeeds {
				want = tierMem
			}
			var seed uint64
			switch want {
			case tierMem:
				seed = site.written[c][hot.IntN(len(site.written[c]))]
			case tierDisk:
				seed, cold = cold[0], cold[1:]
			default:
				seed = freshSeed(fresh)
				computed++
			}
			keys := site.keys[seed]
			if want == tierCompute {
				var err error
				if keys, err = pointKeys(seed); err != nil {
					return err
				}
			}
			id := rec.begin()
			for _, k := range keys {
				owner.Store(k, id)
			}
			t0 := time.Now()
			r := issue(ctx, node, want, seed, keys, nil)
			rec.finish(id, "request."+want.String(), t0, time.Now())
			served[c] = append(served[c], r)
			if r.resp != nil {
				bytesServed.Add(int64(r.resp.bytes))
			}
			reqIDs[c] = append(reqIDs[c], id)
		}
		return nil
	})
	if err != nil {
		return err
	}
	wall := time.Since(start)
	stats, err := node.stats(ctx)
	if err != nil {
		return err
	}

	var (
		reqs []servedRequest
		ids  []int
	)
	for c := range served {
		reqs = append(reqs, served[c]...)
		ids = append(ids, reqIDs[c]...)
	}
	if err := checkServed(ctx, &lr.tally, reqs); err != nil {
		return err
	}

	spans := rec.all()
	self := selfTimes(spans)
	byName := make(map[string][]time.Duration)
	for _, s := range spans {
		if s.Parent > 0 { // store calls made by requests, not by set-up
			byName[s.Name] = append(byName[s.Name], s.dur())
		}
	}
	var hitSelf time.Duration
	hits := 0
	tiers := map[string]int{}
	for i, r := range reqs {
		tiers[r.want.String()]++
		if r.want != tierCompute && r.err == nil {
			hitSelf += self[ids[i]]
			hits++
		}
	}
	memAfter, diskAfter := node.mem.counts(), node.disk.counts()
	gets := float64(memAfter.gets - memBefore.gets)
	puts := float64(diskAfter.puts - diskBefore.puts)
	lr.set("store.mem_get_us", "us", meanUS(byName["store.mem.get"]))
	lr.set("store.disk_get_us", "us", meanUS(byName["store.disk.get"]))
	lr.set("store.disk_put_us", "us", meanUS(byName["store.disk.put"]))
	lr.set("store.disk_bytes_per_put", "B", ratio(float64(node.disk.Stats().BytesWritten-bytesBefore), puts))
	lr.set("store.mem_hit_frac", "fraction", ratio(float64(memAfter.found-memBefore.found), gets))
	lr.set("store.disk_hit_frac", "fraction", ratio(float64(diskAfter.found-diskBefore.found), gets))
	lr.set("server.non_store_ms_per_hit", "ms", ratio(float64(hitSelf.Nanoseconds())/1e6, float64(hits)))
	lr.set("server.bytes_per_req", "B", ratio(float64(bytesServed.Load()), float64(len(reqs))))
	lr.diag["serve"] = map[string]any{
		"requests":     len(reqs),
		"req_per_s":    float64(len(reqs)) / wall.Seconds(),
		"tiers":        tiers,
		"flight_joins": stats.Flight.Joins,
		"shed":         stats.Limits.Shed,
		"rate_limited": stats.Limits.RateLimited,
	}
	return nil
}

// meanUS is the mean of ds in microseconds (0 for none).
func meanUS(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ratio(float64(sum.Nanoseconds())/1e3, float64(len(ds)))
}

// wireProbe is the worker's HTTP transport in the traced distributed
// segment: it times each work call and counts its bytes on the wire and
// the points each lease grants.
type wireProbe struct {
	base http.RoundTripper

	mu          sync.Mutex
	leaseRTT    []time.Duration
	resultRTT   []time.Duration
	wireBytes   int64
	leased      int
	emptyLeases int
	leases      int
}

// reset forgets the calls made so far (the warm-up sweep's).
func (w *wireProbe) reset() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.leaseRTT, w.resultRTT = nil, nil
	w.wireBytes, w.leased, w.emptyLeases, w.leases = 0, 0, 0, 0
}

func (w *wireProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	rtt := time.Since(start)
	path := req.URL.Path
	if !strings.HasPrefix(path, "/v1/work/") {
		return resp, nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wireBytes += max(req.ContentLength, 0) + int64(len(body))
	switch path {
	case "/v1/work/lease":
		w.leaseRTT = append(w.leaseRTT, rtt)
		var grant dist.LeaseResponse
		if json.Unmarshal(body, &grant) == nil && !grant.Done {
			if len(grant.Points) == 0 {
				w.emptyLeases++
			} else {
				w.leases++
				w.leased += len(grant.Points)
			}
		}
	case "/v1/work/result":
		w.resultRTT = append(w.resultRTT, rtt)
	}
	return resp, nil
}

// busyRegistry copies the registry with every point computation timed, so
// the worker's busy time is measured at the scenario boundary.
func busyRegistry(busy *atomic.Int64) *scenario.Registry {
	reg := scenario.NewRegistry()
	for _, sc := range experiments.Registry().All() {
		switch {
		case sc.RunPointCtx != nil:
			inner := sc.RunPointCtx
			sc.RunPointCtx = func(ctx context.Context, s scenario.Scale, pt scenario.Point) (scenario.Result, error) {
				t0 := time.Now()
				defer func() { busy.Add(int64(time.Since(t0))) }()
				return inner(ctx, s, pt)
			}
		case sc.RunPoint != nil:
			inner := sc.RunPoint
			sc.RunPoint = func(s scenario.Scale, pt scenario.Point) (scenario.Result, error) {
				t0 := time.Now()
				defer func() { busy.Add(int64(time.Since(t0))) }()
				return inner(s, pt)
			}
		}
		reg.MustRegister(sc)
	}
	return reg
}

// tracedDist runs distributed quick-scale sweeps with the worker's
// transport and registry instrumented.
func tracedDist(ctx context.Context, cfg config, budget time.Duration, lr *layersResult) error {
	probe := &wireProbe{base: http.DefaultTransport.(*http.Transport).Clone()}
	var busy atomic.Int64
	cluster, err := startCluster(probe, busyRegistry(&busy))
	if err != nil {
		return err
	}
	warm := scenario.Quick()
	warm.Seed = warmSeed
	if _, _, err := cluster.sweep(ctx, warm); err != nil {
		cluster.stop() //nolint:errcheck // the sweep's error is the one to report
		return err
	}
	probe.reset()
	busy.Store(0)

	r := cfg.rng(6)
	var runs []distRun
	points := 0
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < budget {
		s := scenario.Quick()
		s.Seed = freshSeed(r)
		outs, n, err := cluster.sweep(ctx, s)
		points += n
		lr.attempt(n)
		if err != nil {
			lr.failBatch(n, "distributed seed %d: %v", s.Seed, err)
		}
		runs = append(runs, distRun{scale: s, outs: outs, err: err})
	}
	wall := time.Since(start)
	snap := cluster.coord.Snapshot()
	if err := cluster.stop(); err != nil {
		return err
	}
	if err := checkDistRuns(&lr.tally, runs); err != nil {
		return err
	}
	probe.mu.Lock()
	defer probe.mu.Unlock()
	lr.set("dist.lease_rtt_ms", "ms", meanUS(probe.leaseRTT)/1e3)
	lr.set("dist.result_rtt_ms", "ms", meanUS(probe.resultRTT)/1e3)
	lr.set("dist.points_per_lease", "count", ratio(float64(probe.leased), float64(probe.leases)))
	lr.set("dist.empty_leases", "count", float64(probe.emptyLeases))
	lr.set("dist.wire_bytes_per_point", "B", ratio(float64(probe.wireBytes), float64(points)))
	lr.set("dist.worker_busy_frac", "fraction", ratio(float64(busy.Load()), float64(wall)))
	lr.diag["dist"] = map[string]any{
		"sweeps":        len(runs),
		"points_per_s":  float64(points) / wall.Seconds(),
		"requeues":      snap.Queue.Requeues,
		"stale_results": snap.Queue.StaleResults,
	}
	return nil
}
