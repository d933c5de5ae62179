package netsim

import (
	"math"
	"testing"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/energy"
	"pbbf/internal/mac"
	"pbbf/internal/rng"
	"pbbf/internal/topo"
	"pbbf/internal/trace"
)

// energyTestConfig builds a small finite-battery scenario.
func energyTestConfig(t *testing.T, opts EnergyOptions) Config {
	t.Helper()
	const n = 24
	d, err := topo.NewConnectedRandomDisk(topo.DiskConfig{
		N: n, Range: 30, Area: topo.AreaForDensity(n, 30, 10),
	}, rng.New(11), 500)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topo:      d,
		Source:    topo.NodeID(n / 2),
		MAC:       mac.DefaultConfig(core.Params{P: 0.5, Q: 0.25}),
		Lambda:    0.01,
		Duration:  300 * time.Second,
		K:         1,
		TrackHops: []int{1, 2},
		Seed:      99,
		Energy:    opts,
	}
}

func TestEnergyOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		e    EnergyOptions
		ok   bool
	}{
		{"zero (infinite)", EnergyOptions{}, true},
		{"finite", EnergyOptions{InitialJ: 1}, true},
		{"finite jittered harvesting", EnergyOptions{InitialJ: 1, JitterFrac: 0.2, HarvestW: 0.01}, true},
		{"negative initial", EnergyOptions{InitialJ: -1}, false},
		{"jitter without battery", EnergyOptions{JitterFrac: 0.2}, false},
		{"jitter at 1", EnergyOptions{InitialJ: 1, JitterFrac: 1}, false},
		{"negative harvest", EnergyOptions{InitialJ: 1, HarvestW: -0.01}, false},
		{"harvest without battery", EnergyOptions{HarvestW: 0.01}, false},
		{"NaN initial", EnergyOptions{InitialJ: math.NaN()}, false},
		{"NaN jitter", EnergyOptions{InitialJ: 1, JitterFrac: math.NaN()}, false},
	}
	for _, tc := range cases {
		cfg := energyTestConfig(t, tc.e)
		_, err := Run(cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: Run error = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestFiniteEnergyLifetimeMetrics: batteries sized to kill part of the
// fleet mid-run must produce depletion deaths (classified separately from
// churn) and internally consistent lifetime metrics.
func TestFiniteEnergyLifetimeMetrics(t *testing.T) {
	cfg := energyTestConfig(t, EnergyOptions{InitialJ: 0.4, JitterFrac: 0.2})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesDepleted == 0 {
		t.Fatal("no node depleted despite a 0.4 J battery over 300 s awake-heavy duty")
	}
	if res.NodesDied != 0 {
		t.Fatalf("NodesDied = %d without churn; depletion deaths must not count as churn", res.NodesDied)
	}
	horizon := cfg.Duration.Seconds()
	if res.TimeToFirstDeathS <= 0 || res.TimeToFirstDeathS >= horizon {
		t.Fatalf("TimeToFirstDeathS = %v, want inside (0, %v)", res.TimeToFirstDeathS, horizon)
	}
	if res.TimeToHalfDeadS < res.TimeToFirstDeathS {
		t.Fatalf("TimeToHalfDeadS %v < TimeToFirstDeathS %v", res.TimeToHalfDeadS, res.TimeToFirstDeathS)
	}
	if len(res.CoverageOverTime) == 0 {
		t.Fatal("no coverage samples")
	}
	if res.CoverageOverTime[0] != 1 {
		t.Fatalf("coverage at t=0 = %v, want 1", res.CoverageOverTime[0])
	}
	for i := 1; i < len(res.CoverageOverTime); i++ {
		if res.CoverageOverTime[i] > res.CoverageOverTime[i-1] {
			t.Fatalf("coverage increased at sample %d: %v", i, res.CoverageOverTime)
		}
	}
	n := float64(cfg.Topo.N())
	if got, want := res.CoverageOverTime[len(res.CoverageOverTime)-1], (n-float64(res.NodesDepleted))/n; got != want {
		t.Fatalf("final coverage %v inconsistent with %d depleted of %v nodes (want %v)",
			got, res.NodesDepleted, n, want)
	}
	if res.EnergyVarianceJ2 < 0 {
		t.Fatalf("energy variance %v negative", res.EnergyVarianceJ2)
	}
}

// TestInfiniteEnergyNoLifetimeMetrics: the legacy configuration must not
// grow lifetime metrics — no deaths, no coverage samples, zero times.
func TestInfiniteEnergyNoLifetimeMetrics(t *testing.T) {
	cfg := energyTestConfig(t, EnergyOptions{})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesDepleted != 0 || res.NodesDied != 0 {
		t.Fatalf("immortal run reported deaths: depleted %d, died %d", res.NodesDepleted, res.NodesDied)
	}
	if res.TimeToFirstDeathS != 0 || res.TimeToHalfDeadS != 0 || res.CoverageOverTime != nil {
		t.Fatalf("immortal run reported lifetime metrics: %+v", res)
	}
}

// deathTimes extracts node -> depletion-death time from a trace stream,
// checking each death carries the depleted cause.
func deathTimes(t *testing.T, events []trace.Event) map[int32]time.Duration {
	t.Helper()
	deaths := make(map[int32]time.Duration)
	for _, ev := range events {
		if ev.Kind != trace.KindDeath {
			continue
		}
		if ev.Value != trace.DeathCauseDepleted {
			t.Fatalf("death of node %d at %v carries cause %v, want depleted", ev.Node, ev.T, ev.Value)
		}
		if _, dup := deaths[ev.Node]; dup {
			t.Fatalf("node %d died twice", ev.Node)
		}
		deaths[ev.Node] = ev.T
	}
	return deaths
}

// TestDepletionSilencesNode: the acceptance invariant — after a node's
// depletion death event, the trace stream contains no further activity from
// it: no transmissions started, no receptions, no deliveries. (A tx_end at
// the death instant is the one allowed trailer: a frame committed to the
// air completes, and the death is polled right after it.)
func TestDepletionSilencesNode(t *testing.T) {
	cfg := energyTestConfig(t, EnergyOptions{InitialJ: 0.4, JitterFrac: 0.2})
	var slab trace.Slab
	cfg.MAC.Trace = &slab
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deaths := deathTimes(t, slab.Events)
	if len(deaths) != res.NodesDepleted {
		t.Fatalf("trace has %d depletion deaths, result says %d", len(deaths), res.NodesDepleted)
	}
	if len(deaths) == 0 {
		t.Fatal("no depletion deaths to check")
	}
	dead := make(map[int32]bool)
	for _, ev := range slab.Events {
		if ev.Kind == trace.KindDeath {
			dead[ev.Node] = true
			continue
		}
		if !dead[ev.Node] {
			continue
		}
		switch ev.Kind {
		case trace.KindTxData, trace.KindTxATIM, trace.KindRxData, trace.KindRxATIM,
			trace.KindDuplicate, trace.KindDeliver, trace.KindWake:
			t.Fatalf("dead node %d (died %v) still active: %s at %v",
				ev.Node, deaths[ev.Node], ev.Kind, ev.T)
		}
	}
}

// TestMidTransmissionDepletion pins the edge case where the battery runs
// dry while a frame is on the air. Phase one runs with an effectively
// infinite (but finite-typed, so the RNG stream matches) battery and reads
// off the first data transmission: who sends, when, for how long, and the
// sender's consumption at tx start. Phase two sizes every battery to run
// dry exactly halfway through that airtime. The committed frame must
// complete — tx_end on time, billed at full transmit power — and the death
// must land at the tx_end instant, after it in stream order.
func TestMidTransmissionDepletion(t *testing.T) {
	const probeJ = 1000 // outlasts any 300 s run; keeps Energy.Enabled() true
	probe := energyTestConfig(t, EnergyOptions{InitialJ: probeJ})
	var probeSlab trace.Slab
	probe.MAC.Trace = &probeSlab
	if _, err := Run(probe); err != nil {
		t.Fatal(err)
	}
	var tx *trace.Event
	for i, ev := range probeSlab.Events {
		if ev.Kind == trace.KindTxData {
			tx = &probeSlab.Events[i]
			break
		}
	}
	if tx == nil {
		t.Fatal("probe run transmitted no data frame")
	}
	// The sender's cumulative consumption at tx start: the energy event of
	// its transmit transition at the same instant.
	spentJ := -1.0
	for _, ev := range probeSlab.Events {
		if ev.Kind == trace.KindEnergy && ev.Node == tx.Node && ev.T == tx.T &&
			ev.Peer == int32(energy.Transmit) {
			spentJ = ev.Value
			break
		}
	}
	if spentJ < 0 {
		t.Fatalf("no transmit energy transition for node %d at %v", tx.Node, tx.T)
	}
	airtime := time.Duration(tx.Value * float64(time.Second))
	txEnd := tx.T + airtime
	profile := probe.MAC.Profile
	if profile == (energy.Profile{}) {
		profile = energy.Mica2()
	}

	// Phase two: run dry halfway through that airtime. The stream is
	// identical up to the first depletion (same seeds, same draws), and the
	// first data transmitter is also the top consumer at that instant (its
	// extra ATIM transmissions put it ahead of the idling rest), so this
	// sender dies mid-air before any other node depletes.
	cutoff := energyTestConfig(t, EnergyOptions{InitialJ: spentJ + profile.TransmitW*airtime.Seconds()/2})
	var slab trace.Slab
	cutoff.MAC.Trace = &slab
	res, err := Run(cutoff)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodesDepleted == 0 {
		t.Fatal("no node depleted")
	}
	txEndIdx, deathIdx := -1, -1
	for i, ev := range slab.Events {
		if ev.Node != tx.Node {
			continue
		}
		if ev.Kind == trace.KindTxEnd && ev.T == txEnd && txEndIdx < 0 {
			txEndIdx = i
		}
		if ev.Kind == trace.KindDeath {
			deathIdx = i
			if ev.T != txEnd {
				t.Fatalf("death at %v, want the tx_end instant %v", ev.T, txEnd)
			}
			if ev.Value != trace.DeathCauseDepleted {
				t.Fatalf("death cause %v, want depleted", ev.Value)
			}
		}
	}
	if txEndIdx < 0 {
		t.Fatalf("committed frame did not complete: no tx_end for node %d at %v", tx.Node, txEnd)
	}
	if deathIdx < 0 {
		t.Fatalf("node %d never died", tx.Node)
	}
	if deathIdx < txEndIdx {
		t.Fatal("death recorded before the frame left the air")
	}
	// Full billing: the transmit interval closes at tx_end with the entire
	// airtime charged at transmit power, even though the battery ran dry
	// halfway through it.
	for _, ev := range slab.Events {
		if ev.Kind == trace.KindEnergy && ev.Node == tx.Node && ev.T == txEnd {
			want := spentJ + profile.TransmitW*airtime.Seconds()
			if !almostEqualF(ev.Value, want, 1e-12) {
				t.Fatalf("billed %v J through tx_end, want %v (full airtime at PTX)", ev.Value, want)
			}
			break
		}
	}
}

func almostEqualF(a, b, eps float64) bool {
	d := a - b
	return d <= eps && d >= -eps
}
