package experiments

import (
	"context"
	"fmt"

	"pbbf/internal/core"
	"pbbf/internal/mac"
	"pbbf/internal/netsim"
	"pbbf/internal/protocol"
	"pbbf/internal/rng"
	"pbbf/internal/scenario"
	"pbbf/internal/stats"
	"pbbf/internal/topo"
	"pbbf/internal/trace"
)

// netDocs documents the Section 5 sweep space: the pq protocol grid plus
// the field density.
var netDocs = []scenario.ParamDoc{
	{Name: "p", Desc: "PBBF immediate-rebroadcast probability (0 pins PSM, 1 pins NO PSM)"},
	{Name: "q", Desc: "PBBF stay-awake probability; swept or pinned at the Table 2 default 0.25"},
	{Name: "delta", Desc: "field density Δ (expected neighbors per node); Table 2 default 10"},
}

// netProtocols returns the Section 5 protocol set: PBBF at each p of the
// net sweep plus the PSM and NO PSM baselines.
func netProtocols(s Scale) []core.Params {
	out := make([]core.Params, 0, len(s.PSweepNet)+2)
	for _, p := range s.PSweepNet {
		out = append(out, core.Params{P: p})
	}
	out = append(out, core.PSM(), core.AlwaysOn())
	return out
}

// netPoint aggregates NetRuns scenarios for (params, delta): each run
// draws a fresh connected random field and seed, mirroring the paper's
// "each data point is averaged over ten runs".
type netPoint struct {
	Energy       stats.Accumulator
	Received     stats.Accumulator
	Latency      stats.Accumulator
	LatencyAtHop map[int]*stats.Accumulator
	NodesAtHop   map[int]float64 // mean per scenario

	// Network-lifetime accumulators, fed only on finite-energy runs
	// (per-run seconds / fractions / counts from netsim.Result).
	FirstDeath stats.Accumulator // time to first death, censored at horizon
	HalfDead   stats.Accumulator // time to half the nodes dead, censored
	AliveFrac  stats.Accumulator // alive-node fraction at the horizon
	Depleted   stats.Accumulator // battery-depletion death count
	EnergyVar  stats.Accumulator // per-node consumed-joules variance
}

// netOpts are extension hooks for runNetPoint; the zero value reproduces
// the paper's Table 2 settings.
type netOpts struct {
	k int // updates per packet; 0 means 1

	// protocol pins the broadcast protocol for this scenario regardless of
	// the scale-wide selection (the extcompare family sweeps it per
	// series, extadaptive pins adaptive PBBF). Zero means: honor
	// Scale.Protocol.
	protocol protocol.Spec

	// Scenario-diversity knobs (see diversity.go). field replaces the
	// default connected uniform random disk; the option structs thread
	// straight into netsim.Config.
	field  fieldBuilder
	loss   netsim.LossOptions
	churn  netsim.ChurnOptions
	hetero mac.HeteroConfig

	// energy pins the finite-battery options for this scenario (the
	// lifetime/harvest families sweep them per point). Zero means: honor
	// the scale-wide Scale.EnergyJ/HarvestW axis.
	energy netsim.EnergyOptions
}

// fieldBuilder draws one deployment for a run. delta is the target density
// Δ; the builder must keep retrying until the placement is connected (or
// fail), mirroring NewConnectedRandomDisk. Builders construct through the
// point's leased topology scratch sc, so the topology is valid only until the
// scratch's next build — runNetPoint consumes it before the next run draws.
type fieldBuilder func(s Scale, delta float64, r *rng.Source, sc *topo.Scratch) (topo.Topology, error)

// runNetPoint aggregates NetRuns simulations for one data point on a pool
// bundle leased for the point. ctx carries only an optional trace provider;
// results are identical with or without it.
func runNetPoint(ctx context.Context, s Scale, params core.Params, delta float64, tag uint64, opts netOpts) (*netPoint, error) {
	if opts.k == 0 {
		opts.k = 1
	}
	// Resolve the protocol: a scenario pin wins, then the scale-wide
	// selection.
	proto := opts.protocol
	if proto.Name == "" && s.Protocol != "" {
		var err error
		if proto, err = protocol.SpecFor(s.Protocol); err != nil {
			return nil, err
		}
	}
	// Resolve the energy axis the same way: a scenario pin wins, then the
	// scale-wide selection.
	energyOpts := opts.energy
	if !energyOpts.Enabled() && s.EnergyJ > 0 {
		energyOpts = netsim.EnergyOptions{InitialJ: s.EnergyJ, HarvestW: s.HarvestW}
	}
	pools := acquirePools()
	defer releasePools(pools)
	// A context-carried trace provider hands out one sink per run — the
	// `pbbf trace` subcommand and the trace-neutrality test. No provider
	// (every sweep/serve path) leaves every MAC.Trace nil.
	tracer := trace.ProviderFrom(ctx)
	point := &netPoint{
		LatencyAtHop: make(map[int]*stats.Accumulator, len(s.NetTrackHops)),
		NodesAtHop:   make(map[int]float64, len(s.NetTrackHops)),
	}
	for _, h := range s.NetTrackHops {
		point.LatencyAtHop[h] = &stats.Accumulator{}
	}
	for run := 0; run < s.NetRuns; run++ {
		seed := pointSeed(s.Seed, tag, fbits(params.P), fbits(params.Q), fbits(delta), uint64(run))
		r := rng.New(seed)
		var field topo.Topology
		var err error
		if opts.field != nil {
			field, err = opts.field(s, delta, r, pools.topo)
		} else {
			field, err = pools.topo.ConnectedRandomDisk(topo.DiskConfig{
				N:     s.NetNodes,
				Range: 30,
				Area:  topo.AreaForDensity(s.NetNodes, 30, delta),
			}, r, 500)
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: net point Δ=%v: %w", delta, err)
		}
		macCfg := mac.DefaultConfig(params)
		macCfg.Protocol = proto
		// The paper chooses one random node as source per scenario.
		source := topo.NodeID(r.Intn(field.N()))
		if tracer != nil {
			macCfg.Trace = tracer.BeginRun(run)
		}
		res, err := pools.net.Run(netsim.Config{
			Topo:      field,
			Source:    source,
			MAC:       macCfg,
			Lambda:    0.01,
			Duration:  s.NetDuration,
			K:         opts.k,
			TrackHops: s.NetTrackHops,
			Loss:      opts.loss,
			Churn:     opts.churn,
			Hetero:    opts.hetero,
			Energy:    energyOpts,
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		point.Energy.Add(res.EnergyPerUpdateJ)
		point.Received.Add(res.UpdatesReceivedFraction)
		if res.Latency.N() > 0 {
			point.Latency.Add(res.Latency.Mean())
		}
		for _, h := range s.NetTrackHops {
			if acc := res.LatencyAtHop[h]; acc != nil && acc.N() > 0 {
				point.LatencyAtHop[h].Add(acc.Mean())
			}
			point.NodesAtHop[h] += float64(res.NodesAtHop[h]) / float64(s.NetRuns)
		}
		if energyOpts.Enabled() {
			point.FirstDeath.Add(res.TimeToFirstDeathS)
			point.HalfDead.Add(res.TimeToHalfDeadS)
			point.AliveFrac.Add(res.CoverageOverTime[len(res.CoverageOverTime)-1])
			point.Depleted.Add(float64(res.NodesDepleted))
			point.EnergyVar.Add(res.EnergyVarianceJ2)
		}
	}
	return point, nil
}

// netResult shapes one aggregated net point into the engine's common
// result: the figure's y value plus the standard metric triple.
func netResult(point *netPoint, y float64, ok bool) scenario.Result {
	out := scenario.Result{
		Y:        y,
		Skip:     !ok,
		EnergyJ:  point.Energy.Mean(),
		Delivery: point.Received.Mean(),
	}
	if point.Latency.N() > 0 {
		out.LatencyS = point.Latency.Mean()
	}
	if point.FirstDeath.N() > 0 {
		out.FirstDeathS = point.FirstDeath.Mean()
		out.HalfDeadS = point.HalfDead.Mean()
		out.AliveFrac = point.AliveFrac.Mean()
		out.Depleted = point.Depleted.Mean()
		out.EnergyVarJ2 = point.EnergyVar.Mean()
	}
	return out
}

// netQSweep builds a Section 5 q-sweep scenario at Δ=10 (Table 2): one
// aggregated netPoint per (protocol, q), parallelized by the engine.
func netQSweep(id, artifact, title, summary, ylabel string, tag uint64,
	metric func(*netPoint) (float64, bool)) scenario.Scenario {
	return scenario.Scenario{
		ID:       id,
		Title:    title,
		Artifact: artifact,
		Summary:  summary,
		Params:   netDocs,
		XLabel:   "q",
		YLabel:   ylabel,
		Points: func(s Scale) ([]scenario.Point, error) {
			pts := protocolQPoints(netProtocols(s), s.QSweep)
			for i := range pts {
				pts[i].Params["delta"] = 10
			}
			return pts, nil
		},
		RunPointCtx: func(ctx context.Context, s Scale, pt scenario.Point) (scenario.Result, error) {
			params := core.Params{P: pt.Params["p"], Q: pt.Params["q"]}
			point, err := runNetPoint(ctx, s, params, pt.Params["delta"], tag, netOpts{})
			if err != nil {
				return scenario.Result{}, err
			}
			y, ok := metric(point)
			return netResult(point, y, ok), nil
		},
	}
}

// netDeltaSweep builds a Section 5 density-sweep scenario at q=0.25
// (Table 2).
func netDeltaSweep(id, artifact, title, summary, ylabel string, tag uint64,
	metric func(*netPoint) (float64, bool)) scenario.Scenario {
	return scenario.Scenario{
		ID:       id,
		Title:    title,
		Artifact: artifact,
		Summary:  summary,
		Params:   netDocs,
		XLabel:   "delta",
		YLabel:   ylabel,
		Points: func(s Scale) ([]scenario.Point, error) {
			protos := netProtocols(s)
			pts := make([]scenario.Point, 0, len(protos)*len(s.DeltaSweep))
			for _, proto := range protos {
				params := proto
				if proto != core.PSM() && proto != core.AlwaysOn() {
					params.Q = 0.25
				}
				for _, delta := range s.DeltaSweep {
					pts = append(pts, scenario.Point{
						Series: proto.Label(),
						X:      delta,
						Params: map[string]float64{"p": params.P, "q": params.Q, "delta": delta},
					})
				}
			}
			return pts, nil
		},
		RunPointCtx: func(ctx context.Context, s Scale, pt scenario.Point) (scenario.Result, error) {
			params := core.Params{P: pt.Params["p"], Q: pt.Params["q"]}
			point, err := runNetPoint(ctx, s, params, pt.Params["delta"], tag, netOpts{})
			if err != nil {
				return scenario.Result{}, err
			}
			y, ok := metric(point)
			return netResult(point, y, ok), nil
		},
	}
}

// netScenarios returns the Section 5 simulator scenarios in presentation
// order (Figures 13–18).
func netScenarios() []scenario.Scenario {
	return []scenario.Scenario{
		netQSweep("fig13", "Figure 13",
			"Figure 13: average energy consumption (ns-style sim)",
			"Figure 8's energy sweep under the realistic MAC: collisions and ATIM traffic shift the curves but preserve the PSM…NO PSM bracketing.",
			"joules consumed per update sent at source", 13,
			func(p *netPoint) (float64, bool) { return p.Energy.Mean(), p.Energy.N() > 0 }),
		netQSweep("fig14", "Figure 14",
			"Figure 14: 2-hop average update latency",
			"Mean update latency at nodes two BFS hops from the source versus q; falls steeply once immediate rebroadcasts start landing.",
			"average 2-hop latency (s)", 14,
			func(p *netPoint) (float64, bool) {
				acc := p.LatencyAtHop[2]
				return acc.Mean(), acc.N() > 0
			}),
		netQSweep("fig15", "Figure 15",
			"Figure 15: 5-hop average update latency",
			"The Figure 14 metric at five hops, where latency differences compound per hop.",
			"average 5-hop latency (s)", 15,
			func(p *netPoint) (float64, bool) {
				acc := p.LatencyAtHop[5]
				return acc.Mean(), acc.N() > 0
			}),
		netQSweep("fig16", "Figure 16",
			"Figure 16: average updates received",
			"Delivered fraction of generated updates versus q under the realistic MAC — reliability including collisions and sleep misses.",
			"updates received / total updates sent at source", 16,
			func(p *netPoint) (float64, bool) { return p.Received.Mean(), p.Received.N() > 0 }),
		netDeltaSweep("fig17", "Figure 17",
			"Figure 17: average update latency vs density",
			"Update latency versus field density Δ at q=0.25: denser fields offer more awake forwarders, cutting latency.",
			"average update latency (s)", 17,
			func(p *netPoint) (float64, bool) { return p.Latency.Mean(), p.Latency.N() > 0 }),
		netDeltaSweep("fig18", "Figure 18",
			"Figure 18: average updates received vs density",
			"Delivered fraction versus density Δ at q=0.25 — the reliability counterpart of Figure 17.",
			"updates received / total updates sent at source", 18,
			func(p *netPoint) (float64, bool) { return p.Received.Mean(), p.Received.N() > 0 }),
	}
}
