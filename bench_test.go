// Package pbbf's root benchmark harness: one testing.B benchmark per table
// and figure of the paper, each regenerating the artifact's data at a
// trimmed quick scale (reduced dimensions, same shapes), plus ablation benchmarks
// for the repository's design choices. Run with:
//
//	go test -bench=. -benchmem
//
// For paper-scale data use the CLI: pbbf -experiment all -scale paper.
package pbbf

import (
	"testing"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/experiments"
	"pbbf/internal/idealsim"
	"pbbf/internal/mac"
	"pbbf/internal/netsim"
	"pbbf/internal/rng"
	"pbbf/internal/scenario"
	"pbbf/internal/topo"
)

// benchScale trims the quick scale further so each bench iteration is one
// comparable unit of work.
func benchScale() scenario.Scale {
	s := scenario.Quick()
	s.NetRuns = 1
	s.NetDuration = 200 * time.Second
	s.IdealUpdates = 2
	s.PercTrials = 20
	return s
}

// benchExperiment regenerates the registered scenario id once per
// iteration through the engine.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	sc, err := experiments.Registry().ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	s := benchScale()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed = uint64(i + 1)
		tbl, err := scenario.Run(sc, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Series) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable1Params(b *testing.B)         { benchExperiment(b, "table1") }
func BenchmarkTable2Params(b *testing.B)         { benchExperiment(b, "table2") }
func BenchmarkFig4Threshold90(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5Threshold99(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkFig6CriticalBond(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7PQFrontier(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8Energy(b *testing.B)           { benchExperiment(b, "fig8") }
func BenchmarkFig9HopStretchNear(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10HopStretchFar(b *testing.B)   { benchExperiment(b, "fig10") }
func BenchmarkFig11PerHopLatency(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12Tradeoff(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13EnergyNS(b *testing.B)        { benchExperiment(b, "fig13") }
func BenchmarkFig14Latency2Hop(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15Latency5Hop(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkFig16UpdatesReceived(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17LatencyDensity(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkFig18ReceivedDensity(b *testing.B) { benchExperiment(b, "fig18") }
func BenchmarkExtGossip(b *testing.B)            { benchExperiment(b, "extgossip") }
func BenchmarkExtKBatching(b *testing.B)         { benchExperiment(b, "extk") }
func BenchmarkExtAdaptive(b *testing.B)          { benchExperiment(b, "extadaptive") }
func BenchmarkExtLossInjection(b *testing.B)     { benchExperiment(b, "extloss") }
func BenchmarkExtWakeupDutyCycle(b *testing.B)   { benchExperiment(b, "extwakeup") }

// BenchmarkRegistryAllFlattened runs the entire scenario registry through
// the flattened parallel sweep — the `pbbf -experiment all` hot path.
func BenchmarkRegistryAllFlattened(b *testing.B) {
	s := benchScale()
	scenarios := experiments.Registry().All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed = uint64(i + 1)
		outs, err := scenario.RunAll(scenarios, s, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(outs) != len(scenarios) {
			b.Fatalf("got %d outputs", len(outs))
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationQCoinModel compares the per-(node, frame) stay-awake
// coin (the protocol's semantics, used by idealsim) against the
// independent-per-reception coin the bond-percolation analysis assumes.
// The benchmark reports both models' coverage as custom metrics so runs
// can confirm the analysis approximation holds.
func BenchmarkAblationQCoinModel(b *testing.B) {
	g := topo.MustGrid(30, 30)
	params := core.Params{P: 0.5, Q: 0.5}
	var frameCoin, indep float64
	for i := 0; i < b.N; i++ {
		cfg := idealsim.Defaults(g, g.Center())
		cfg.Params = params
		cfg.Updates = 2
		cfg.Seed = uint64(i + 1)
		res, err := idealsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		frameCoin += res.MeanCoverage()

		// Independent-coin model: a direct bond-percolation realization
		// with pedge = 1 − p(1 − q).
		indep += independentCoinCoverage(g, core.EdgeProbability(params.P, params.Q), uint64(i+1))
	}
	b.ReportMetric(frameCoin/float64(b.N), "coverage-framecoin")
	b.ReportMetric(indep/float64(b.N), "coverage-independent")
}

// independentCoinCoverage floods the grid opening each directed edge
// independently with probability pedge and returns the covered fraction.
func independentCoinCoverage(g *topo.Grid, pedge float64, seed uint64) float64 {
	r := rng.New(seed)
	reached := make([]bool, g.N())
	src := g.Center()
	reached[src] = true
	queue := []topo.NodeID{src}
	count := 1
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(cur) {
			if !reached[nb] && r.Bool(pedge) {
				reached[nb] = true
				count++
				queue = append(queue, nb)
			}
		}
	}
	return float64(count) / float64(g.N())
}

// BenchmarkAblationEventVsTimeStepped compares the event-driven ideal
// simulator against a naive fixed-timestep variant of the same model,
// quantifying the design choice to build on a discrete-event kernel.
func BenchmarkAblationEventVsTimeStepped(b *testing.B) {
	g := topo.MustGrid(30, 30)
	b.Run("event-driven", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := idealsim.Defaults(g, g.Center())
			cfg.Params = core.PSM()
			cfg.Updates = 1
			cfg.Seed = uint64(i + 1)
			if _, err := idealsim.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("time-stepped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			timeSteppedPSMFlood(g, 100*time.Millisecond)
		}
	})
}

// timeSteppedPSMFlood is the strawman: advance a clock in fixed ticks and
// diffuse one PSM broadcast one beacon interval per hop.
func timeSteppedPSMFlood(g *topo.Grid, tick time.Duration) int {
	const frame = 10 * time.Second
	horizon := 100 * frame
	received := make([]bool, g.N())
	pending := make([]bool, g.N())
	received[g.Center()] = true
	pending[g.Center()] = true
	steps := 0
	for now := time.Duration(0); now < horizon; now += tick {
		steps++
		if now%frame != 0 {
			continue
		}
		next := make([]bool, g.N())
		for id := range pending {
			if !pending[id] {
				continue
			}
			for _, nb := range g.Neighbors(topo.NodeID(id)) {
				if !received[nb] {
					received[nb] = true
					next[nb] = true
				}
			}
		}
		pending = next
	}
	return steps
}

// --- Hot-path micro benchmarks -------------------------------------------

// BenchmarkNetsimRun measures one fine-grained Section 5 run in the
// large-n, long-horizon regime the pooled event kernel targets: 100 nodes,
// 2000 simulated seconds, one topology built once outside the loop so the
// numbers isolate the kernel + MAC + PHY hot path.
func BenchmarkNetsimRun(b *testing.B) {
	const n = 100
	field, err := topo.NewConnectedRandomDisk(
		topo.DiskConfig{N: n, Range: 30, Area: topo.AreaForDensity(n, 30, 10)},
		rng.New(42), 500)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := netsim.Run(netsim.Config{
			Topo:      field,
			Source:    0,
			MAC:       mac.DefaultConfig(core.Params{P: 0.25, Q: 0.25}),
			Lambda:    0.01,
			Duration:  2000 * time.Second,
			K:         1,
			TrackHops: []int{2, 5},
			Seed:      uint64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.UpdatesGenerated == 0 {
			b.Fatal("no updates generated")
		}
	}
}

func BenchmarkIdealSimGrid75(b *testing.B) {
	g := topo.MustGrid(75, 75)
	for i := 0; i < b.N; i++ {
		cfg := idealsim.Defaults(g, g.Center())
		cfg.Params = core.Params{P: 0.5, Q: 0.5}
		cfg.Updates = 1
		cfg.Seed = uint64(i + 1)
		if _, err := idealsim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
