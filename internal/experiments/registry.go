package experiments

import (
	"sync"

	"pbbf/internal/scenario"
	"pbbf/internal/stats"
)

// table1Scenario renders the analysis parameters (Table 1) as a two-column
// table. Static by construction; included so every numbered artifact of
// the paper has a regenerator.
func table1Scenario() scenario.Scenario {
	return scenario.Scenario{
		ID:       "table1",
		Title:    "Table 1: analysis parameters",
		Artifact: "Table 1",
		Summary:  "The Section 4 analysis constants: grid size, Mica2 power levels, update rate, channel-access time, and the PSM schedule.",
		TableFn: func(Scale) (*stats.Table, error) {
			tbl := &stats.Table{
				Title:  "Table 1: analysis parameter values",
				XLabel: "row",
				YLabel: "see series names for units",
			}
			rows := []struct {
				name  string
				value float64
			}{
				{"N (nodes, 75x75 grid)", 5625},
				{"PTX (mW)", 81},
				{"PI (mW)", 30},
				{"PS (uW)", 3},
				{"lambda (packets/s)", 0.01},
				{"L1 (s)", 1.5},
				{"Tframe (s)", 10},
				{"Tactive (s)", 1},
			}
			for i, r := range rows {
				tbl.AddSeries(r.name).Append(float64(i), r.value)
			}
			return tbl, nil
		},
	}
}

// table2Scenario renders the code distribution parameters (Table 2).
func table2Scenario() scenario.Scenario {
	return scenario.Scenario{
		ID:       "table2",
		Title:    "Table 2: code distribution parameters",
		Artifact: "Table 2",
		Summary:  "The Section 5 workload constants: field size, density, packet sizes, bit rate, run length, and runs per point.",
		TableFn: func(Scale) (*stats.Table, error) {
			tbl := &stats.Table{
				Title:  "Table 2: code distribution parameter values",
				XLabel: "row",
				YLabel: "see series names for units",
			}
			rows := []struct {
				name  string
				value float64
			}{
				{"N (nodes)", 50},
				{"q (default)", 0.25},
				{"delta (density)", 10},
				{"total packet size (bytes)", 64},
				{"data packet payload (bytes)", 30},
				{"k (updates per packet)", 1},
				{"bitrate (kbps)", 19.2},
				{"run length (s)", 500},
				{"runs per point", 10},
			}
			for i, r := range rows {
				tbl.AddSeries(r.name).Append(float64(i), r.value)
			}
			return tbl, nil
		},
	}
}

var (
	registryOnce sync.Once
	registry     *scenario.Registry
)

// Registry returns the full scenario registry — every table and figure of
// the paper plus the ext* extension studies — built once, in presentation
// order. Registration panics on duplicate IDs or incomplete metadata, so a
// bad scenario definition fails every test run.
func Registry() *scenario.Registry {
	registryOnce.Do(func() {
		registry = scenario.NewRegistry()
		registry.MustRegister(table1Scenario())
		for _, sc := range section4Scenarios() {
			registry.MustRegister(sc)
		}
		registry.MustRegister(table2Scenario())
		for _, sc := range netScenarios() {
			registry.MustRegister(sc)
		}
		for _, sc := range extScenarios() {
			registry.MustRegister(sc)
		}
		for _, sc := range diversityScenarios() {
			registry.MustRegister(sc)
		}
		// extcompare and the lifetime families register last, newest at the
		// end: registration order is NDJSON output order, so appending keeps
		// every earlier golden line a stable prefix.
		for _, sc := range compareScenarios() {
			registry.MustRegister(sc)
		}
		for _, sc := range lifetimeScenarios() {
			registry.MustRegister(sc)
		}
	})
	return registry
}
