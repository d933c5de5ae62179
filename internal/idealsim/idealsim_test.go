package idealsim

import (
	"math"
	"reflect"
	"testing"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/topo"
)

func testConfig(w, h int, params core.Params, seed uint64) Config {
	g := topo.MustGrid(w, h)
	cfg := Defaults(g, g.Center())
	cfg.Params = params
	cfg.Seed = seed
	return cfg
}

func TestValidate(t *testing.T) {
	good := testConfig(10, 10, core.PSM(), 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Topo = nil },
		func(c *Config) { c.Source = -1 },
		func(c *Config) { c.Source = topo.NodeID(c.Topo.N()) },
		func(c *Config) { c.Params.P = 2 },
		func(c *Config) { c.Timing.Active = 0 },
		func(c *Config) { c.L1 = 0 },
		func(c *Config) { c.Lambda = 0 },
		func(c *Config) { c.Updates = 0 },
		func(c *Config) { c.TxTime = -time.Second },
	}
	for i, mutate := range mutations {
		cfg := testConfig(10, 10, core.PSM(), 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestPSMFullCoverage(t *testing.T) {
	// PSM (p=0): every forward is a normal broadcast all neighbors wake
	// for; on a connected grid every update reaches every node.
	res, err := Run(testConfig(15, 15, core.PSM(), 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Coverage {
		if c != 1 {
			t.Fatalf("update %d coverage %v, want 1", i, c)
		}
	}
	if got := res.FractionOfUpdatesReceivedBy(0.99); got != 1 {
		t.Fatalf("fraction received by 99%% = %v", got)
	}
}

func TestAlwaysOnFullCoverageAndLowLatency(t *testing.T) {
	res, err := Run(testConfig(15, 15, core.AlwaysOn(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MeanCoverage(); got != 1 {
		t.Fatalf("coverage = %v", got)
	}
	// All hops are immediate: per-hop latency ≈ L1 = 1.5 s (the first hop
	// carries the source's ATIM-window delay, so allow some slack).
	if got := res.PerHopLatency.Mean(); got > 3 {
		t.Fatalf("always-on per-hop latency %v s, want ≈1.5", got)
	}
}

func TestPSMPerHopLatencyNearBeaconInterval(t *testing.T) {
	cfg := testConfig(15, 15, core.PSM(), 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each hop beyond the first waits a full beacon interval; the per-hop
	// mean converges toward Tframe = 10 s from below.
	got := res.PerHopLatency.Mean()
	if got < 5 || got > 11.5 {
		t.Fatalf("PSM per-hop latency %v s, want within (5, 11.5)", got)
	}
}

func TestHighPZeroQLosesCoverage(t *testing.T) {
	// p=0.75, q=0: edge probability 0.25 < pc(0.5); the broadcast dies
	// near the source.
	res, err := Run(testConfig(20, 20, core.Params{P: 0.75, Q: 0}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MeanCoverage(); got > 0.5 {
		t.Fatalf("subcritical coverage %v, want small", got)
	}
}

func TestThresholdBehaviorInQ(t *testing.T) {
	// At p=0.5: q=0 gives pedge=0.5 (critical, unreliable for 99%);
	// q=0.8 gives pedge=0.9 (deep in the supercritical region).
	low, err := Run(testConfig(20, 20, core.Params{P: 0.5, Q: 0.1}, 5))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(testConfig(20, 20, core.Params{P: 0.5, Q: 0.8}, 5))
	if err != nil {
		t.Fatal(err)
	}
	if low.FractionOfUpdatesReceivedBy(0.99) >= high.FractionOfUpdatesReceivedBy(0.99) &&
		low.MeanCoverage() >= high.MeanCoverage() {
		t.Fatalf("no threshold: low-q coverage %v >= high-q coverage %v",
			low.MeanCoverage(), high.MeanCoverage())
	}
	if got := high.FractionOfUpdatesReceivedBy(0.99); got < 0.99 {
		t.Fatalf("supercritical reliability %v, want ≈1", got)
	}
}

func TestEnergyMatchesEquation8(t *testing.T) {
	// Figure 8's claim: measured energy is linear in q and matches the
	// duty-cycle analysis; p does not matter.
	timing := core.Timing{Active: time.Second, Frame: 10 * time.Second}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		cfg := testConfig(15, 15, core.Params{P: 0.25, Q: q}, 6)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Expected per-node per-update energy: average power × 1/λ.
		period := 1 / cfg.Lambda
		wantW := cfg.Profile.IdleW*core.EnergyPBBF(timing, q) +
			cfg.Profile.SleepW*(1-core.EnergyPBBF(timing, q))
		want := wantW * period
		// Coin noise across 225 nodes × 50 frames stays within a few
		// percent; TX surcharge adds a hair.
		if math.Abs(res.EnergyPerUpdateJ-want) > want*0.08+0.01 {
			t.Fatalf("q=%v: energy %v J, analysis %v J", q, res.EnergyPerUpdateJ, want)
		}
	}
}

func TestEnergyIndependentOfP(t *testing.T) {
	a, err := Run(testConfig(15, 15, core.Params{P: 0.05, Q: 0.5}, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(15, 15, core.Params{P: 0.75, Q: 0.5}, 7))
	if err != nil {
		t.Fatal(err)
	}
	diff := math.Abs(a.EnergyPerUpdateJ - b.EnergyPerUpdateJ)
	if diff > a.EnergyPerUpdateJ*0.02 {
		t.Fatalf("energy depends on p: %v vs %v", a.EnergyPerUpdateJ, b.EnergyPerUpdateJ)
	}
}

func TestEnergyMonotoneInQ(t *testing.T) {
	prev := -1.0
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		res, err := Run(testConfig(12, 12, core.Params{P: 0.25, Q: q}, 8))
		if err != nil {
			t.Fatal(err)
		}
		if res.EnergyPerUpdateJ < prev {
			t.Fatalf("energy decreased at q=%v: %v after %v", q, res.EnergyPerUpdateJ, prev)
		}
		prev = res.EnergyPerUpdateJ
	}
}

func TestLatencyDecreasesWithQ(t *testing.T) {
	// Figure 11's right side: at supercritical q, higher q lowers per-hop
	// latency because more hops are immediate.
	slow, err := Run(testConfig(15, 15, core.Params{P: 0.75, Q: 0.6}, 9))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(testConfig(15, 15, core.Params{P: 0.75, Q: 1}, 9))
	if err != nil {
		t.Fatal(err)
	}
	if fast.PerHopLatency.Mean() >= slow.PerHopLatency.Mean() {
		t.Fatalf("latency did not fall with q: %v -> %v",
			slow.PerHopLatency.Mean(), fast.PerHopLatency.Mean())
	}
}

func TestHopStretchAtHighReliability(t *testing.T) {
	// Figures 9/10: at q=1 every node receives along shortest-ish paths,
	// so path length ≈ BFS distance.
	cfg := testConfig(21, 21, core.Params{P: 0.5, Q: 1}, 10)
	cfg.TrackHopDistances = []int{8}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := res.HopsAtDistance[8]
	if acc.N() == 0 {
		t.Fatal("no samples at distance 8")
	}
	if got := acc.Mean(); got > 8*1.3 {
		t.Fatalf("hop stretch at q=1: %v hops for distance 8", got)
	}
	if res.NodesAtDistance[8] == 0 {
		t.Fatal("NodesAtDistance not populated")
	}
}

func TestHopStretchGrowsAtLowQ(t *testing.T) {
	// Near the reliability boundary the spanning tree takes detours:
	// average path length at a tracked distance exceeds the distance.
	base := testConfig(21, 21, core.Params{P: 0.5, Q: 0.35}, 11)
	base.TrackHopDistances = []int{8}
	base.Updates = 20
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	acc := res.HopsAtDistance[8]
	if acc.N() == 0 {
		t.Skip("no node at distance 8 reached at this q; subcritical run")
	}
	direct := testConfig(21, 21, core.Params{P: 0.5, Q: 1}, 11)
	direct.TrackHopDistances = []int{8}
	resDirect, err := Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Mean() < resDirect.HopsAtDistance[8].Mean() {
		t.Fatalf("low-q stretch %v below high-q stretch %v",
			acc.Mean(), resDirect.HopsAtDistance[8].Mean())
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(testConfig(12, 12, core.Params{P: 0.5, Q: 0.5}, 42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(12, 12, core.Params{P: 0.5, Q: 0.5}, 42))
	if err != nil {
		t.Fatal(err)
	}
	if a.EnergyPerUpdateJ != b.EnergyPerUpdateJ {
		t.Fatal("energy differs across identical seeds")
	}
	if a.PerHopLatency.Mean() != b.PerHopLatency.Mean() {
		t.Fatal("latency differs across identical seeds")
	}
	for i := range a.Coverage {
		if a.Coverage[i] != b.Coverage[i] {
			t.Fatal("coverage differs across identical seeds")
		}
	}
}

func TestSeedsChangeOutcomes(t *testing.T) {
	a, err := Run(testConfig(15, 15, core.Params{P: 0.5, Q: 0.45}, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testConfig(15, 15, core.Params{P: 0.5, Q: 0.45}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a.PerHopLatency.Mean() == b.PerHopLatency.Mean() &&
		a.MeanCoverage() == b.MeanCoverage() {
		t.Fatal("different seeds produced identical stochastic outcomes")
	}
}

// TestBaselinesIgnoreSeed pins why the PSM and NO PSM points of a q-sweep
// may share one computation: with p and q at 0 or 1 every coin is decided
// without the seed, so the seed cannot change a baseline's result.
func TestBaselinesIgnoreSeed(t *testing.T) {
	for _, params := range []core.Params{core.PSM(), core.AlwaysOn()} {
		run := func(seed uint64) *Result {
			cfg := testConfig(12, 12, params, seed)
			cfg.TrackHopDistances = []int{3}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if a, b := run(1), run(0x9e3779b97f4a7c15); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: results differ between seeds", params.Label())
		}
	}
}

func TestCoverageBounds(t *testing.T) {
	res, err := Run(testConfig(10, 10, core.Params{P: 0.375, Q: 0.5}, 12))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Coverage {
		if c < 1.0/100 || c > 1 {
			t.Fatalf("coverage %v out of range", c)
		}
	}
}

func BenchmarkRunGrid30PSM(b *testing.B) {
	cfg := testConfig(30, 30, core.PSM(), 1)
	cfg.Updates = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunGrid30PBBF(b *testing.B) {
	cfg := testConfig(30, 30, core.Params{P: 0.5, Q: 0.5}, 1)
	cfg.Updates = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
