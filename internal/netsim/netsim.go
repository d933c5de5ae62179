// Package netsim runs the fine-grained Section 5 simulations: a random
// sensor field, the full PSM+PBBF MAC over a collision-prone channel, and
// the code distribution application on top. It produces the metrics behind
// Figures 13–18: per-update energy, per-hop-distance update latency, and
// the fraction of updates received.
//
// The paper used ns-2 with a modified 802.11 PSM MAC; this package is the
// equivalent substrate built on internal/sim + internal/phy + internal/mac
// (see README.md for the architecture and docs/EXPERIMENTS.md for the
// figures it backs). RunPool (pool.go) is the one implementation of the
// simulator: each experiment point leases a warm pool from a process-wide
// free list for the point's runs and returns it when the point ends, and
// Run is a run on a fresh pool.
package netsim

import (
	"fmt"
	"time"

	"pbbf/internal/energy"
	"pbbf/internal/mac"
	"pbbf/internal/rng"
	"pbbf/internal/stats"
	"pbbf/internal/topo"
)

// LossOptions groups the channel-loss knobs — one option struct per fault/
// diversity family is the Config idiom.
type LossOptions struct {
	// Rate injects independent per-reception frame loss at the PHY
	// (0 = the paper's collision-only channel).
	Rate float64
	// LinkMean, when positive, draws a persistent loss rate for every
	// link uniformly in [0, 2·LinkMean) — link quality diversity on
	// top of (or instead of) the iid Rate. Must stay below 0.5.
	LinkMean float64
}

// ChurnOptions groups the fail-stop churn knobs.
type ChurnOptions struct {
	// FailFraction, when positive, kills this fraction of non-source
	// nodes (fail-stop, permanent) at seeded uniform times during the run.
	FailFraction float64
}

// EnergyOptions groups the finite-battery knobs. The zero value is the
// paper's infinite battery: no extra random draws, byte-identical runs.
type EnergyOptions struct {
	// InitialJ is the mean per-node initial battery capacity in joules;
	// 0 keeps every battery infinite.
	InitialJ float64
	// JitterFrac, when positive, spreads per-node capacities uniformly in
	// [InitialJ·(1−JitterFrac), InitialJ·(1+JitterFrac)) from a dedicated
	// seeded split — a field of mixed battery ages instead of one
	// factory-fresh fleet. Must stay below 1 so every node keeps a
	// positive (finite) budget.
	JitterFrac float64
	// HarvestW recharges every battery at a constant rate, clamped at its
	// capacity.
	HarvestW float64
}

// Enabled reports whether batteries are finite.
func (e EnergyOptions) Enabled() bool { return e.InitialJ > 0 }

// Validate checks the options: capacity and harvest as a battery budget,
// then the jitter this package adds.
func (e EnergyOptions) Validate() error {
	if err := (energy.Budget{CapacityJ: e.InitialJ, HarvestW: e.HarvestW}).Validate(); err != nil {
		return fmt.Errorf("netsim: %w", err)
	}
	if !(e.JitterFrac >= 0 && e.JitterFrac < 1) { // also rejects NaN
		return fmt.Errorf("netsim: energy jitter %v outside [0,1)", e.JitterFrac)
	}
	if e.JitterFrac > 0 && e.InitialJ == 0 {
		return fmt.Errorf("netsim: energy jitter %v requires a positive initial energy", e.JitterFrac)
	}
	return nil
}

// Sample draws one node's battery budget, consuming one draw from r only
// when jitter is configured (the hetero sampler pattern), so homogeneous
// fleets keep deterministic per-node streams.
func (e EnergyOptions) Sample(r *rng.Source) energy.Budget {
	out := energy.Budget{CapacityJ: e.InitialJ, HarvestW: e.HarvestW}
	if e.JitterFrac > 0 {
		out.CapacityJ = e.InitialJ * (1 + (2*r.Float64()-1)*e.JitterFrac)
	}
	return out
}

// Config parameterizes one scenario run (one topology, one seed).
type Config struct {
	// Topo is the deployment; Section 5 uses 50 nodes placed uniformly at
	// random with density Δ (Table 2).
	Topo topo.Topology
	// Source is the broadcast/code-distribution origin.
	Source topo.NodeID
	// MAC holds the PSM timing, PBBF knobs, bit rate, and frame sizes.
	MAC mac.Config
	// Lambda is the update generation rate (Table 1: 0.01 updates/s).
	Lambda float64
	// Duration is the simulated time (Section 5: 500 s).
	Duration time.Duration
	// K is the number of recent updates batched per packet (Table 2: 1).
	K int
	// TrackHops lists BFS distances from the source at which latency is
	// reported separately (Figures 14/15 use 2 and 5).
	TrackHops []int
	// Loss groups the channel-loss knobs.
	Loss LossOptions
	// Churn groups the fail-stop churn knobs.
	Churn ChurnOptions
	// Hetero, when enabled, jitters each node's PBBF operating point
	// around MAC.Params from a seeded per-node distribution —
	// heterogeneous duty cycles instead of one global wake probability.
	Hetero mac.HeteroConfig
	// Energy, when enabled, gives every node a finite battery (mean
	// initial capacity, optional per-node jitter, optional harvesting)
	// with fail-stop death on depletion; Result then reports the
	// network-lifetime metrics. The per-node budgets are threaded into
	// each node's MAC config, so setting this alongside a non-zero
	// MAC.Energy is a conflict.
	Energy EnergyOptions
	// Seed drives every coin in the run.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Topo == nil || c.Topo.N() == 0 {
		return fmt.Errorf("netsim: empty topology")
	}
	if int(c.Source) < 0 || int(c.Source) >= c.Topo.N() {
		return fmt.Errorf("netsim: source %d outside [0,%d)", c.Source, c.Topo.N())
	}
	if err := c.MAC.Validate(); err != nil {
		return err
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("netsim: lambda %v must be positive", c.Lambda)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("netsim: duration %v must be positive", c.Duration)
	}
	if c.K <= 0 {
		return fmt.Errorf("netsim: k %d must be positive", c.K)
	}
	if c.Loss.Rate < 0 || c.Loss.Rate >= 1 {
		return fmt.Errorf("netsim: loss rate %v outside [0,1)", c.Loss.Rate)
	}
	if c.Loss.LinkMean < 0 || c.Loss.LinkMean >= 0.5 {
		return fmt.Errorf("netsim: mean link loss %v outside [0,0.5)", c.Loss.LinkMean)
	}
	if c.Churn.FailFraction < 0 || c.Churn.FailFraction >= 1 {
		return fmt.Errorf("netsim: churn fraction %v outside [0,1)", c.Churn.FailFraction)
	}
	if err := c.Hetero.Validate(); err != nil {
		return err
	}
	if err := c.Energy.Validate(); err != nil {
		return err
	}
	if c.Energy != (EnergyOptions{}) && c.MAC.Energy != (energy.Budget{}) {
		// Energy folds per node (jitter draws a budget for each); a
		// hand-set MAC budget would be silently overwritten.
		return fmt.Errorf("netsim: Energy conflicts with MAC.Energy; set one")
	}
	return nil
}

// Result aggregates one run's metrics.
type Result struct {
	// UpdatesGenerated is the number of updates the source created.
	UpdatesGenerated int
	// EnergyPerUpdateJ is mean per-node energy divided by updates.
	EnergyPerUpdateJ float64
	// UpdatesReceivedFraction is the mean over non-source nodes of
	// (updates received / updates generated) — Figures 16/18.
	UpdatesReceivedFraction float64
	// Latency accumulates first-sight update latency (seconds) over all
	// non-source nodes — Figure 17.
	Latency stats.Accumulator
	// LatencyAtHop holds the same metric restricted to nodes at each
	// tracked BFS distance — Figures 14/15.
	LatencyAtHop map[int]*stats.Accumulator
	// NodesAtHop counts nodes at each tracked distance in this scenario.
	NodesAtHop map[int]int
	// NodesDied counts externally injected (churn) fail-stop deaths
	// during the run; depletion deaths are counted separately so churn
	// scenarios report unchanged numbers under the finite-energy API.
	NodesDied int
	// NodesDepleted counts battery-depletion deaths (finite-energy runs).
	NodesDepleted int
	// Network-lifetime metrics, populated only for finite-energy runs
	// (Config.Energy enabled); the times cover deaths of either cause and
	// are censored at the horizon — a network that never reached the
	// event reports Duration.
	//
	// TimeToFirstDeathS is when the first node died.
	TimeToFirstDeathS float64
	// TimeToHalfDeadS is when half the nodes (rounded up) were dead.
	TimeToHalfDeadS float64
	// CoverageOverTime samples the alive-node fraction at 11 evenly
	// spaced instants from t=0 through the horizon.
	CoverageOverTime []float64
	// EnergyVarianceJ2 is the population variance of per-node consumed
	// joules — the load-balance axis of the max-lifetime literature.
	EnergyVarianceJ2 float64
	// Channel-level counters (diagnostics).
	FramesStarted, FramesDelivered, FramesCollided int
}

// Run executes one scenario on a fresh RunPool, so the returned Result is
// the caller's alone.
func Run(cfg Config) (*Result, error) { return NewRunPool().Run(cfg) }
