package experiments

import (
	"time"

	"pbbf/internal/core"
	"pbbf/internal/idealsim"
	"pbbf/internal/scenario"
)

// extWakeupScenario is the first scenario born on the unified engine
// rather than ported to it: a duty-cycle wakeup-schedule sweep in the
// style of King et al.'s "Sleeping on the Job" and the Klonowski–Pajak
// time-vs-energy trade-off results. The paper fixes the wakeup schedule
// (Tactive=1 s, Tframe=10 s, duty cycle 10%) and sweeps p/q; this scenario
// holds the protocol operating point fixed and sweeps the schedule
// instead, stretching Tframe so the duty cycle Tactive/Tframe walks from
// deep sleep to always-awake. Latency is plotted; per-point energy rides
// along in the JSON result triple, so the schedule's own time-vs-energy
// frontier can be read from `pbbf -experiment extwakeup -format json`.
func extWakeupScenario() scenario.Scenario {
	operatingPoints := []struct {
		series string
		params core.Params
	}{
		{"PSM", core.PSM()},
		{"PBBF-0.5 (q=0.25)", core.Params{P: 0.5, Q: 0.25}},
		{"PBBF-0.75 (q=0.5)", core.Params{P: 0.75, Q: 0.5}},
	}
	return scenario.Scenario{
		ID:       "extwakeup",
		Title:    "Extension: per-hop latency vs wakeup-schedule duty cycle",
		Artifact: "extension",
		Summary:  "Duty-cycle sweep (King et al. style): fix the PBBF operating point, stretch Tframe so Tactive/Tframe walks from 5% to always-on, and trace how the wakeup schedule itself trades latency against energy.",
		Params: []scenario.ParamDoc{
			{Name: "p", Desc: "PBBF immediate-rebroadcast probability of the fixed operating point"},
			{Name: "q", Desc: "PBBF stay-awake probability of the fixed operating point"},
			{Name: "duty", Desc: "wakeup-schedule duty cycle Tactive/Tframe, swept on the x axis (Tactive fixed at 1 s)"},
		},
		XLabel: "duty cycle (Tactive/Tframe)",
		YLabel: "average per-hop update latency (s)",
		Points: func(s Scale) ([]scenario.Point, error) {
			pts := make([]scenario.Point, 0, len(operatingPoints)*len(s.DutySweep))
			for _, op := range operatingPoints {
				for _, duty := range s.DutySweep {
					pts = append(pts, scenario.Point{
						Series: op.series,
						X:      duty,
						Params: map[string]float64{
							"p": op.params.P, "q": op.params.Q, "duty": duty,
						},
					})
				}
			}
			return pts, nil
		},
		RunPoint: func(s Scale, pt scenario.Point) (scenario.Result, error) {
			duty := pt.Params["duty"]
			res, err := runIdealPoint(s, func(cfg *idealsim.Config) {
				active := time.Second
				cfg.Params = core.Params{P: pt.Params["p"], Q: pt.Params["q"]}
				cfg.Timing = core.Timing{
					Active: active,
					Frame:  time.Duration(float64(active) / duty),
				}
				cfg.Seed = pointSeed(s.Seed, 108,
					fbits(cfg.Params.P), fbits(cfg.Params.Q), fbits(duty))
			})
			if err != nil {
				return scenario.Result{}, err
			}
			out := scenario.Result{
				EnergyJ:  res.EnergyPerUpdateJ,
				Delivery: res.MeanCoverage(),
			}
			if res.PerHopLatency.N() == 0 {
				out.Skip = true
				return out, nil
			}
			out.Y = res.PerHopLatency.Mean()
			out.LatencyS = out.Y
			return out, nil
		},
	}
}
