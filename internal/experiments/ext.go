package experiments

import (
	"context"
	"fmt"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/gossip"
	"pbbf/internal/idealsim"
	"pbbf/internal/netsim"
	"pbbf/internal/percolation"
	"pbbf/internal/protocol"
	"pbbf/internal/rng"
	"pbbf/internal/scenario"
	"pbbf/internal/topo"
)

// The ext* scenarios go beyond the paper's evaluation: the related-work
// gossip baseline (§2.1), the k>1 batching the paper ran but omitted
// (§5.1), the future-work adaptive controller (§6), a PHY-loss robustness
// probe, a T-MAC-style adaptive schedule, and a duty-cycle wakeup sweep
// (see wakeup.go). They register through the same scenario engine as the
// figure regenerators.

// extGossipScenario contrasts the two percolation models on one plot:
// gossip forwarding (site percolation — the node coin silences every
// outgoing link at once) versus PBBF's link availability (bond percolation
// — each link has its own coin). Bond percolation reaches full coverage at
// a lower probability (square-lattice p_c: 0.5 vs ≈0.593), which is the
// structural advantage PBBF inherits.
func extGossipScenario() scenario.Scenario {
	const (
		modelSite = 0
		modelBond = 1
	)
	return scenario.Scenario{
		ID:       "extgossip",
		Title:    "Extension: gossip (site) vs PBBF (bond) coverage on a 30x30 grid",
		Artifact: "extension",
		Summary:  "Site vs bond percolation coverage on one plot: gossip's node coin against PBBF's per-link availability, showing the lower threshold PBBF inherits (0.5 vs ≈0.593).",
		Params: []scenario.ParamDoc{
			{Name: "p", Desc: "forwarding probability (site model) / edge probability (bond model)"},
			{Name: "model", Desc: "0 = gossip site percolation, 1 = PBBF bond percolation"},
		},
		XLabel: "forwarding / edge probability",
		YLabel: "mean fraction of nodes covered",
		Points: func(s Scale) ([]scenario.Point, error) {
			models := []struct {
				series string
				id     float64
			}{
				{"gossip (site percolation)", modelSite},
				{"PBBF links (bond percolation)", modelBond},
			}
			var pts []scenario.Point
			for _, m := range models {
				for _, p := range sweepRange(0.1, 1, 0.1) {
					pts = append(pts, scenario.Point{
						Series: m.series,
						X:      p,
						Params: map[string]float64{"p": p, "model": m.id},
					})
				}
			}
			return pts, nil
		},
		RunPoint: func(s Scale, pt scenario.Point) (scenario.Result, error) {
			const side = 30
			g, err := topo.NewGrid(side, side)
			if err != nil {
				return scenario.Result{}, err
			}
			p := pt.Params["p"]
			r := rng.New(pointSeed(s.Seed, 101, fbits(p), uint64(pt.Params["model"])))
			var mean float64
			if pt.Params["model"] == modelSite {
				res, err := gossip.Flood(g, g.Center(), p, s.PercTrials, r)
				if err != nil {
					return scenario.Result{}, err
				}
				mean = res.Coverage.Mean()
			} else {
				res, err := percolation.ReachedFraction(g, g.Center(), p, s.PercTrials, r)
				if err != nil {
					return scenario.Result{}, err
				}
				mean = res.Mean
			}
			return scenario.Result{Y: mean, Delivery: mean}, nil
		},
	}
}

// extKScenario sweeps the code-distribution batching factor k (each packet
// carries the k most recent updates): at lossy operating points, k>1 lets
// nodes recover missed updates from later packets. The paper "experimented
// with different values of k" but only presented k=1.
func extKScenario() scenario.Scenario {
	return scenario.Scenario{
		ID:       "extk",
		Title:    "Extension: update batching k under PBBF-0.5",
		Artifact: "extension",
		Summary:  "Reliability versus q for packet batching factors k=1/2/4: carrying the k latest updates per packet recovers updates missed while asleep.",
		Params: []scenario.ParamDoc{
			{Name: "p", Desc: "PBBF immediate-rebroadcast probability, fixed at 0.5"},
			{Name: "q", Desc: "PBBF stay-awake probability, swept on the x axis"},
			{Name: "k", Desc: "number of recent updates batched per packet (1, 2, 4)"},
		},
		XLabel: "q",
		YLabel: "updates received / total updates sent at source",
		Points: func(s Scale) ([]scenario.Point, error) {
			var pts []scenario.Point
			for _, k := range []int{1, 2, 4} {
				for _, q := range s.QSweep {
					pts = append(pts, scenario.Point{
						Series: fmt.Sprintf("k=%d", k),
						X:      q,
						Params: map[string]float64{"p": 0.5, "q": q, "k": float64(k)},
					})
				}
			}
			return pts, nil
		},
		RunPointCtx: func(ctx context.Context, s Scale, pt scenario.Point) (scenario.Result, error) {
			point, err := runNetPoint(ctx, s, core.Params{P: pt.Params["p"], Q: pt.Params["q"]},
				10, 102, netOpts{k: int(pt.Params["k"])})
			if err != nil {
				return scenario.Result{}, err
			}
			return netResult(point, point.Received.Mean(), point.Received.N() > 0), nil
		},
	}
}

// extAdaptiveScenario compares the future-work adaptive controller
// (Section 6) against static operating points as the channel degrades:
// adaptive nodes raise q when sequence gaps reveal missed broadcasts,
// recovering reliability that static settings lose. All variants share the
// seeding tag (and, for static vs adaptive, the PBBF parameters), so they
// are evaluated on identical scenarios — a paired comparison rather than
// independent draws. The adaptive series pins adaptive PBBF; the static and
// PSM series honour the scale-wide protocol.
func extAdaptiveScenario() scenario.Scenario {
	return scenario.Scenario{
		ID:       "extadaptive",
		Title:    "Extension: adaptive p/q controller vs static settings under PHY loss",
		Artifact: "extension",
		Summary:  "Paired comparison of the Section 6 adaptive controller against static PBBF-0.25 and PSM as PHY loss rises 0→30%.",
		Params: []scenario.ParamDoc{
			{Name: "p", Desc: "initial immediate-rebroadcast probability"},
			{Name: "q", Desc: "initial stay-awake probability"},
			{Name: "loss", Desc: "injected independent per-reception PHY frame loss rate"},
			{Name: "adaptive", Desc: "1 enables the adaptive p/q controller, 0 keeps the static setting"},
		},
		XLabel: "PHY loss rate",
		YLabel: "updates received / total updates sent at source",
		Points: func(s Scale) ([]scenario.Point, error) {
			static := core.Params{P: 0.25, Q: 0.25}
			variants := []struct {
				series   string
				params   core.Params
				adaptive float64
			}{
				{"static PBBF-0.25 (q=0.25)", static, 0},
				{"adaptive PBBF", static, 1},
				{"PSM", core.PSM(), 0},
			}
			var pts []scenario.Point
			for _, v := range variants {
				for _, loss := range []float64{0, 0.1, 0.2, 0.3} {
					pts = append(pts, scenario.Point{
						Series: v.series,
						X:      loss,
						Params: map[string]float64{
							"p": v.params.P, "q": v.params.Q,
							"loss": loss, "adaptive": v.adaptive,
						},
					})
				}
			}
			return pts, nil
		},
		RunPointCtx: func(ctx context.Context, s Scale, pt scenario.Point) (scenario.Result, error) {
			opts := netOpts{loss: netsim.LossOptions{Rate: pt.Params["loss"]}}
			params := core.Params{P: pt.Params["p"], Q: pt.Params["q"]}
			if pt.Params["adaptive"] == 1 {
				cfg := protocol.DefaultAdaptiveConfig()
				opts.protocol = protocol.Spec{Name: protocol.NamePBBF, Adaptive: &cfg}
			}
			point, err := runNetPoint(ctx, s, params, 10, 103, opts)
			if err != nil {
				return scenario.Result{}, err
			}
			return netResult(point, point.Received.Mean(), point.Received.N() > 0), nil
		},
	}
}

// extLossScenario repeats Figure 16's reliability sweep under injected PHY
// frame loss, probing how much of PBBF's redundancy margin survives a
// noisy channel.
func extLossScenario() scenario.Scenario {
	return scenario.Scenario{
		ID:       "extloss",
		Title:    "Extension: Figure 16 under injected PHY loss (PBBF-0.5)",
		Artifact: "extension",
		Summary:  "Figure 16's delivered fraction versus q with 0/10/30% independent frame loss injected at the PHY — PBBF's rebroadcast redundancy absorbs most of it.",
		Params: []scenario.ParamDoc{
			{Name: "p", Desc: "PBBF immediate-rebroadcast probability, fixed at 0.5"},
			{Name: "q", Desc: "PBBF stay-awake probability, swept on the x axis"},
			{Name: "loss", Desc: "injected independent per-reception PHY frame loss rate"},
		},
		XLabel: "q",
		YLabel: "updates received / total updates sent at source",
		Points: func(s Scale) ([]scenario.Point, error) {
			var pts []scenario.Point
			for _, loss := range []float64{0, 0.1, 0.3} {
				for _, q := range s.QSweep {
					pts = append(pts, scenario.Point{
						Series: fmt.Sprintf("loss=%g", loss),
						X:      q,
						Params: map[string]float64{"p": 0.5, "q": q, "loss": loss},
					})
				}
			}
			return pts, nil
		},
		RunPointCtx: func(ctx context.Context, s Scale, pt scenario.Point) (scenario.Result, error) {
			point, err := runNetPoint(ctx, s, core.Params{P: pt.Params["p"], Q: pt.Params["q"]},
				10, 106, netOpts{loss: netsim.LossOptions{Rate: pt.Params["loss"]}})
			if err != nil {
				return scenario.Result{}, err
			}
			return netResult(point, point.Received.Mean(), point.Received.N() > 0), nil
		},
	}
}

// extTMACScenario compares PBBF over plain 802.11 PSM against PBBF over a
// T-MAC-style adaptive schedule (paper reference [19]) in which a node
// that hears traffic stays awake for a timeout afterwards. Adaptive wake
// extension recovers reliability at aggressive (high-p, low-q) operating
// points: immediate rebroadcast chains ride the extension window instead
// of depending on the q coin. This is the "comparing with other adaptive
// sleep protocols" item of the paper's future work (§6).
func extTMACScenario() scenario.Scenario {
	return scenario.Scenario{
		ID:       "exttmac",
		Title:    "Extension: PBBF over PSM vs over a T-MAC-style adaptive schedule",
		Artifact: "extension",
		Summary:  "Coverage of PBBF-0.75 versus q over plain PSM and over a T-MAC schedule whose 2 s wake extension catches immediate rebroadcast chains.",
		Params: []scenario.ParamDoc{
			{Name: "p", Desc: "PBBF immediate-rebroadcast probability, fixed at 0.75"},
			{Name: "q", Desc: "PBBF stay-awake probability, swept on the x axis"},
			{Name: "extend_s", Desc: "T-MAC wake extension after each reception, seconds (0 = plain PSM)"},
		},
		XLabel: "q",
		YLabel: "mean coverage (PBBF-0.75)",
		Points: func(s Scale) ([]scenario.Point, error) {
			variants := []struct {
				series string
				extend float64
			}{
				{"PSM schedule", 0},
				{"T-MAC schedule (2s extension)", 2},
			}
			var pts []scenario.Point
			for _, v := range variants {
				for _, q := range s.QSweep {
					pts = append(pts, scenario.Point{
						Series: v.series,
						X:      q,
						Params: map[string]float64{"p": 0.75, "q": q, "extend_s": v.extend},
					})
				}
			}
			return pts, nil
		},
		RunPoint: func(s Scale, pt scenario.Point) (scenario.Result, error) {
			extend := time.Duration(pt.Params["extend_s"] * float64(time.Second))
			res, err := runIdealPoint(s, func(cfg *idealsim.Config) {
				cfg.Params = core.Params{P: pt.Params["p"], Q: pt.Params["q"]}
				cfg.ExtendOnReceive = extend
				cfg.Seed = pointSeed(s.Seed, 107, fbits(cfg.Params.Q), uint64(extend))
			})
			if err != nil {
				return scenario.Result{}, err
			}
			out := scenario.Result{
				Y:        res.MeanCoverage(),
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

// extScenarios returns the beyond-the-paper scenarios in presentation
// order.
func extScenarios() []scenario.Scenario {
	return []scenario.Scenario{
		extGossipScenario(),
		extKScenario(),
		extAdaptiveScenario(),
		extLossScenario(),
		extTMACScenario(),
		extWakeupScenario(),
	}
}
