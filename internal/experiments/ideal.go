package experiments

import (
	"fmt"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/idealsim"
	"pbbf/internal/percolation"
	"pbbf/internal/rng"
	"pbbf/internal/scenario"
	"pbbf/internal/stats"
	"pbbf/internal/topo"
)

// pqDocs documents the protocol q-sweep parameter space shared by every
// Section 4/5 figure: one PBBF line per p, the PSM and NO PSM baselines,
// and q on the x axis.
var pqDocs = []scenario.ParamDoc{
	{Name: "p", Desc: "PBBF immediate-rebroadcast probability (0 pins PSM, 1 pins NO PSM)"},
	{Name: "q", Desc: "PBBF stay-awake probability; swept on the x axis, pinned for the baselines"},
}

// idealProtocols returns the protocol set plotted in the Section 4
// figures: PBBF at each p of the sweep, plus the PSM and NO PSM baselines.
// For the baselines q is pinned (0 and 1); for PBBF the caller sweeps q.
func idealProtocols(s Scale) []core.Params {
	out := make([]core.Params, 0, len(s.PSweepIdeal)+2)
	for _, p := range s.PSweepIdeal {
		out = append(out, core.Params{P: p})
	}
	out = append(out, core.PSM(), core.AlwaysOn())
	return out
}

// protocolQPoints enumerates the (protocol, q) grid behind every q-sweep
// figure: one series per protocol, one point per q. Baselines keep their
// pinned parameters but still appear at every x so the lines span the plot.
func protocolQPoints(protos []core.Params, qs []float64) []scenario.Point {
	pts := make([]scenario.Point, 0, len(protos)*len(qs))
	for _, proto := range protos {
		fixed := proto == core.PSM() || proto == core.AlwaysOn()
		for _, q := range qs {
			params := proto
			if !fixed {
				params.Q = q
			}
			pts = append(pts, scenario.Point{
				Series: proto.Label(),
				X:      q,
				Params: map[string]float64{"p": params.P, "q": params.Q},
			})
		}
	}
	return pts
}

// idealQSweep builds a Section 4 q-sweep scenario: one ideal-simulator run
// per (protocol, q) point, y computed by metric from the run result. Every
// point derives its own seed, so the engine can run them in any order.
func idealQSweep(id, artifact, title, summary, ylabel string, tag uint64,
	track func(Scale) []int,
	metric func(Scale, *idealsim.Result) (float64, bool)) scenario.Scenario {
	if track == nil {
		track = func(Scale) []int { return nil }
	}
	return scenario.Scenario{
		ID:       id,
		Title:    title,
		Artifact: artifact,
		Summary:  summary,
		Params:   pqDocs,
		XLabel:   "q",
		YLabel:   ylabel,
		Points: func(s Scale) ([]scenario.Point, error) {
			return protocolQPoints(idealProtocols(s), s.QSweep), nil
		},
		RunPoint: func(s Scale, pt scenario.Point) (scenario.Result, error) {
			res, err := runIdealPoint(s, func(cfg *idealsim.Config) {
				cfg.Params = core.Params{P: pt.Params["p"], Q: pt.Params["q"]}
				cfg.TrackHopDistances = track(s)
				cfg.Seed = pointSeed(s.Seed, tag, fbits(cfg.Params.P), fbits(cfg.Params.Q))
			})
			if err != nil {
				return scenario.Result{}, err
			}
			y, ok := metric(s, res)
			out := scenario.Result{
				Y:        y,
				Skip:     !ok,
				EnergyJ:  res.EnergyPerUpdateJ,
				Delivery: res.MeanCoverage(),
			}
			if res.PerHopLatency.N() > 0 {
				out.LatencyS = res.PerHopLatency.Mean()
			}
			return out, nil
		},
	}
}

// runIdealPoint runs one ideal-MAC point on a leased pooled simulator:
// the scale's grid with the source at its center, Table 1 defaults with
// the scale's update count, then the point's overrides from tune.
func runIdealPoint(s Scale, tune func(*idealsim.Config)) (*idealsim.Result, error) {
	g, err := topo.NewGrid(s.GridW, s.GridH)
	if err != nil {
		return nil, err
	}
	cfg := idealsim.Defaults(g, g.Center())
	cfg.Updates = s.IdealUpdates
	tune(&cfg)
	pools := acquirePools()
	defer releasePools(pools)
	return pools.ideal.Run(cfg)
}

// hopStretchMetric reads the mean dissemination-tree path length at one
// tracked BFS distance (Figures 9/10).
func hopStretchMetric(dist func(Scale) int) func(Scale, *idealsim.Result) (float64, bool) {
	return func(s Scale, r *idealsim.Result) (float64, bool) {
		acc := r.HopsAtDistance[dist(s)]
		if acc == nil || acc.N() == 0 {
			return 0, false
		}
		return acc.Mean(), true
	}
}

// hopStretchScenario builds Figure 9 or 10: the q-sweep of hop stretch at
// one tracked BFS distance, with titles and labels localized to the
// distance the scale actually tracks (paper: 20 near, 60 far).
func hopStretchScenario(id, artifact, title, summary string, tag uint64,
	dist func(Scale) int) scenario.Scenario {
	sc := idealQSweep(id, artifact, title, summary,
		"average hops traveled to nodes at the tracked distance", tag,
		func(s Scale) []int { return []int{dist(s)} },
		hopStretchMetric(dist))
	sc.Localize = func(s Scale, tbl *stats.Table) {
		tbl.Title = fmt.Sprintf("%s: average %d-hop flooding hop count", artifact, dist(s))
		tbl.YLabel = fmt.Sprintf("average hops traveled to nodes %d hops from source", dist(s))
	}
	return sc
}

// section4Scenarios returns the Section 4 scenarios in the paper's
// presentation order: the threshold figures, the percolation analysis
// (Figures 6/7), and the energy/latency/trade-off figures.
func section4Scenarios() []scenario.Scenario {
	return []scenario.Scenario{
		idealQSweep("fig4", "Figure 4",
			"Figure 4: threshold behavior for 90% reliability",
			"Fraction of broadcasts reaching ≥90% of nodes versus q; exhibits the bond-percolation threshold predicted by Remark 1.",
			"fraction of updates received by 90% of nodes", 4, nil,
			func(_ Scale, r *idealsim.Result) (float64, bool) {
				return r.FractionOfUpdatesReceivedBy(0.9), true
			}),
		idealQSweep("fig5", "Figure 5",
			"Figure 5: threshold behavior for 99% reliability",
			"The Figure 4 threshold at the stricter 99% reliability target.",
			"fraction of updates received by 99% of nodes", 5, nil,
			func(_ Scale, r *idealsim.Result) (float64, bool) {
				return r.FractionOfUpdatesReceivedBy(0.99), true
			}),
		fig6Scenario(),
		fig7Scenario(),
		idealQSweep("fig8", "Figure 8",
			"Figure 8: average energy consumption",
			"Per-node energy per update versus q: linear in q, independent of p, bracketed by the PSM and NO PSM baselines (Equation 8).",
			"joules consumed per update sent at source", 8, nil,
			func(_ Scale, r *idealsim.Result) (float64, bool) {
				return r.EnergyPerUpdateJ, true
			}),
		hopStretchScenario("fig9", "Figure 9",
			"Figure 9: hop stretch at the near tracked distance",
			"Average hops traveled by a broadcast to reach nodes HopNear (paper: 20) BFS hops from the source.", 9,
			func(s Scale) int { return s.HopNear }),
		hopStretchScenario("fig10", "Figure 10",
			"Figure 10: hop stretch at the far tracked distance",
			"The Figure 9 metric at HopFar (paper: 60) hops, where detours accumulate.", 10,
			func(s Scale) int { return s.HopFar }),
		idealQSweep("fig11", "Figure 11",
			"Figure 11: average per-hop update latency",
			"Latency divided by tree hops, averaged over every (update, node) pair, versus q (Equation 9's simulated counterpart).",
			"average per-hop update latency (s)", 11, nil,
			func(_ Scale, r *idealsim.Result) (float64, bool) {
				if r.PerHopLatency.N() == 0 {
					return 0, false
				}
				return r.PerHopLatency.Mean(), true
			}),
		fig12Scenario(),
	}
}

// fig12Scenario regenerates Figure 12: the energy–latency trade-off at 99%
// reliability. For each p, the minimum q that crosses the 99% reliability
// boundary is derived from the bond-percolation critical ratio of the grid
// (Remark 1 inverted); energy then follows Equation 8 (scaled to joules
// per update) and latency Equation 9 with L1 from Table 1 and L2 = Tframe.
// Analytic except for one Monte Carlo threshold estimate, so it runs as a
// whole-table scenario rather than a point sweep.
func fig12Scenario() scenario.Scenario {
	return scenario.Scenario{
		ID:       "fig12",
		Title:    "Figure 12: energy-latency trade-off for 99% reliability",
		Artifact: "Figure 12",
		Summary:  "The paper's headline curve: for each p, the cheapest q meeting 99% reliability, plotted as energy versus per-hop latency (Equations 8/9 at the percolation boundary).",
		Params: []scenario.ParamDoc{
			{Name: "p", Desc: "PBBF immediate-rebroadcast probability; sweeps the frontier"},
		},
		XLabel: "average per-hop update latency (s)",
		YLabel: "joules consumed per update sent at source",
		TableFn: func(s Scale) (*stats.Table, error) {
			g, err := topo.NewGrid(s.GridW, s.GridH)
			if err != nil {
				return nil, err
			}
			r := rng.New(pointSeed(s.Seed, 12))
			pc, err := percolation.CriticalBondRatio(g, g.Center(), 0.99, s.PercTrials, r)
			if err != nil {
				return nil, err
			}
			timing := core.Timing{Active: time.Second, Frame: 10 * time.Second}
			lat := core.Latencies{L1: 1500 * time.Millisecond, L2: timing.Frame}
			cfg := idealsim.Defaults(g, g.Center())
			tbl := &stats.Table{
				Title:  "Figure 12: energy-latency trade-off for 99% reliability",
				XLabel: "average per-hop update latency (s)",
				YLabel: "joules consumed per update sent at source",
			}
			series := tbl.AddSeries("PBBF @ 99% reliability boundary")
			period := 1 / cfg.Lambda // seconds between updates
			for _, p := range s.PSweepIdeal {
				q := core.MinQForEdgeProbability(p, pc.Mean)
				perHop := core.ExpectedPerHopLatency(core.Params{P: p, Q: q}, lat)
				avgW := cfg.Profile.IdleW*core.EnergyPBBF(timing, q) +
					cfg.Profile.SleepW*(1-core.EnergyPBBF(timing, q))
				series.Append(perHop.Seconds(), avgW*period)
			}
			return tbl, nil
		},
	}
}
