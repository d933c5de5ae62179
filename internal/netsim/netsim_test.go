package netsim

import (
	"testing"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/mac"
	"pbbf/internal/rng"
	"pbbf/internal/topo"
)

// scenario builds the paper's Table 2 deployment: 50 nodes, Δ=10, with the
// source near the field center, shrunk where noted for test speed.
func scenario(t *testing.T, params core.Params, n int, delta float64, seed uint64) Config {
	t.Helper()
	r := rng.New(seed)
	cfg := topo.DiskConfig{N: n, Range: 30, Area: topo.AreaForDensity(n, 30, delta)}
	field, err := topo.NewConnectedRandomDisk(cfg, r, 200)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topo:      field,
		Source:    0,
		MAC:       mac.DefaultConfig(params),
		Lambda:    0.01,
		Duration:  300 * time.Second,
		K:         1,
		TrackHops: []int{2},
		Seed:      seed,
	}
}

func TestValidate(t *testing.T) {
	good := scenario(t, core.PSM(), 20, 10, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Topo = nil },
		func(c *Config) { c.Source = -1 },
		func(c *Config) { c.Source = topo.NodeID(c.Topo.N()) },
		func(c *Config) { c.MAC.BitrateBps = 0 },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.K = 0 },
		func(c *Config) { // a hand-set MAC budget conflicts with Energy
			c.Energy.InitialJ = 1
			c.MAC.Energy.CapacityJ = 1
		},
	}
	for i, mutate := range mutations {
		cfg := scenario(t, core.PSM(), 20, 10, 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestPSMHighReliability(t *testing.T) {
	res, err := Run(scenario(t, core.PSM(), 30, 10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.UpdatesGenerated != 3 {
		t.Fatalf("updates generated = %d, want 3 (300s at 0.01/s)", res.UpdatesGenerated)
	}
	if res.UpdatesReceivedFraction < 0.95 {
		t.Fatalf("PSM reliability %v, want ≈1", res.UpdatesReceivedFraction)
	}
}

func TestNoPSMLowLatencyHighEnergy(t *testing.T) {
	psm, err := Run(scenario(t, core.PSM(), 30, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	on, err := Run(scenario(t, core.AlwaysOn(), 30, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if on.Latency.Mean() >= psm.Latency.Mean() {
		t.Fatalf("always-on latency %v not below PSM %v", on.Latency.Mean(), psm.Latency.Mean())
	}
	if on.EnergyPerUpdateJ <= psm.EnergyPerUpdateJ {
		t.Fatalf("always-on energy %v not above PSM %v", on.EnergyPerUpdateJ, psm.EnergyPerUpdateJ)
	}
	// Figure 13: PSM saves almost 2 J/update versus no PSM (the gap is
	// well under the 10x duty-cycle ratio because PSM receivers of ATIMs
	// legitimately stay awake whole beacon intervals during propagation).
	if on.EnergyPerUpdateJ-psm.EnergyPerUpdateJ < 1.5 {
		t.Fatalf("energy gap too small: on=%v psm=%v", on.EnergyPerUpdateJ, psm.EnergyPerUpdateJ)
	}
}

func TestEnergyGrowsWithQ(t *testing.T) {
	low, err := Run(scenario(t, core.Params{P: 0.25, Q: 0.1}, 25, 10, 4))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(scenario(t, core.Params{P: 0.25, Q: 0.9}, 25, 10, 4))
	if err != nil {
		t.Fatal(err)
	}
	if high.EnergyPerUpdateJ <= low.EnergyPerUpdateJ {
		t.Fatalf("energy did not grow with q: %v -> %v",
			low.EnergyPerUpdateJ, high.EnergyPerUpdateJ)
	}
}

func TestPBBFHighQBeatsPSMLatency(t *testing.T) {
	// Figure 14/15: for large q and moderate p, PBBF's latency drops well
	// below PSM's.
	psm, err := Run(scenario(t, core.PSM(), 30, 12, 5))
	if err != nil {
		t.Fatal(err)
	}
	pbbf, err := Run(scenario(t, core.Params{P: 0.5, Q: 0.9}, 30, 12, 5))
	if err != nil {
		t.Fatal(err)
	}
	if pbbf.Latency.Mean() >= psm.Latency.Mean() {
		t.Fatalf("PBBF(0.5, 0.9) latency %v not below PSM %v",
			pbbf.Latency.Mean(), psm.Latency.Mean())
	}
}

func TestTrackedHopsPopulated(t *testing.T) {
	cfg := scenario(t, core.PSM(), 40, 10, 6)
	cfg.TrackHops = []int{1, 2}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range cfg.TrackHops {
		if res.NodesAtHop[h] == 0 {
			t.Skipf("scenario has no nodes at hop %d", h)
		}
		if res.LatencyAtHop[h].N() == 0 {
			t.Fatalf("no latency samples at hop %d", h)
		}
	}
	// 2-hop PSM latency ≈ AW + BI (Figure 14): allow a generous band.
	mean := res.LatencyAtHop[2].Mean()
	if mean < 5 || mean > 25 {
		t.Fatalf("2-hop PSM latency %v s, want ≈11", mean)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(scenario(t, core.Params{P: 0.25, Q: 0.5}, 25, 10, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(scenario(t, core.Params{P: 0.25, Q: 0.5}, 25, 10, 7))
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyPerUpdateJ != b.EnergyPerUpdateJ ||
		a.UpdatesReceivedFraction != b.UpdatesReceivedFraction ||
		a.Latency.Mean() != b.Latency.Mean() {
		t.Fatal("identical seeds diverged")
	}
}

func TestChannelCountersPopulated(t *testing.T) {
	res, err := Run(scenario(t, core.PSM(), 25, 10, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesStarted == 0 || res.FramesDelivered == 0 {
		t.Fatalf("channel counters empty: started=%d delivered=%d",
			res.FramesStarted, res.FramesDelivered)
	}
}

func TestHigherDensityImprovesPBBFReliability(t *testing.T) {
	// Figure 18: more neighbors → more redundant copies → better coverage
	// for lossy PBBF settings.
	sparse, err := Run(scenario(t, core.Params{P: 0.5, Q: 0.25}, 40, 8, 9))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := Run(scenario(t, core.Params{P: 0.5, Q: 0.25}, 40, 16, 9))
	if err != nil {
		t.Fatal(err)
	}
	if dense.UpdatesReceivedFraction < sparse.UpdatesReceivedFraction-0.05 {
		t.Fatalf("density hurt reliability: Δ8=%v Δ16=%v",
			sparse.UpdatesReceivedFraction, dense.UpdatesReceivedFraction)
	}
}

func BenchmarkRun50Nodes(b *testing.B) {
	r := rng.New(1)
	cfg := topo.DiskConfig{N: 50, Range: 30, Area: topo.AreaForDensity(50, 30, 10)}
	field, err := topo.NewConnectedRandomDisk(cfg, r, 200)
	if err != nil {
		b.Fatal(err)
	}
	run := Config{
		Topo:     field,
		Source:   0,
		MAC:      mac.DefaultConfig(core.Params{P: 0.25, Q: 0.25}),
		Lambda:   0.01,
		Duration: 500 * time.Second,
		K:        1,
		Seed:     1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(run); err != nil {
			b.Fatal(err)
		}
	}
}
