package scenario

import (
	"flag"
	"fmt"
	"math"
	"strings"
	"time"

	"pbbf/internal/protocol"
)

// Scale sets the dimensions every scenario runs at. One Scale drives the
// whole registry, so "run everything at CI size" or "run everything at the
// paper's size" is a single knob; individual scenarios read only the fields
// they need.
type Scale struct {
	// GridW, GridH size the ideal-simulator grid (Table 1: 75×75).
	GridW, GridH int
	// IdealUpdates is the number of broadcasts per ideal-sim run.
	IdealUpdates int
	// PercTrials is the Monte Carlo trial count for percolation sweeps.
	PercTrials int
	// PercGrids lists the square grid sizes of Figure 6.
	PercGrids []int
	// NetNodes is the random-field size (Table 2: 50).
	NetNodes int
	// NetRuns is the number of scenarios averaged per data point
	// (Section 5: 10).
	NetRuns int
	// NetDuration is the simulated time per scenario (Section 5: 500 s).
	NetDuration time.Duration
	// QSweep lists the q values on the x axis of the q-sweep figures.
	QSweep []float64
	// PSweepIdeal lists the PBBF p values of the Section 4 figures.
	PSweepIdeal []float64
	// PSweepNet lists the PBBF p values of the Section 5 figures.
	PSweepNet []float64
	// DeltaSweep lists the densities of Figures 17/18.
	DeltaSweep []float64
	// HopNear and HopFar are the tracked BFS distances of Figures 9/10
	// (paper: 20 and 60 on the 75×75 grid).
	HopNear, HopFar int
	// NetTrackHops are the BFS distances of Figures 14/15 (paper: 2, 5).
	NetTrackHops []int
	// DutySweep lists the wakeup-schedule duty cycles (Tactive/Tframe) of
	// the duty-cycle sweep scenarios.
	DutySweep []float64
	// Seed is the root of every run's randomness.
	Seed uint64
	// Protocol selects the broadcast protocol network scenarios simulate
	// (see internal/protocol). Empty means PBBF, the paper's protocol; the
	// canonical spelling "pbbf" is folded to empty before a Scale is keyed,
	// so every pre-protocol cache key, checkpoint, and golden file remains
	// valid. Scenario series that pin their own protocol (extadaptive's
	// adaptive series, the cross-protocol comparison) ignore it.
	Protocol string `json:",omitempty"`
	// EnergyJ, when positive, gives every node of a network scenario a
	// finite battery with this mean initial capacity in joules; 0 keeps
	// the paper's infinite battery. Like Protocol, the zero value is
	// omitted from keys and checkpoints so every pre-finite-energy
	// identity remains valid. Scenarios that pin their own energy axis
	// (the lifetime/harvest families) ignore it.
	EnergyJ float64 `json:",omitempty"`
	// HarvestW recharges finite batteries at a constant per-node rate in
	// watts (requires EnergyJ > 0).
	HarvestW float64 `json:",omitempty"`
}

// Paper returns the paper's dimensions. A full run of every scenario at
// this scale takes on the order of minutes.
func Paper() Scale {
	return Scale{
		GridW: 75, GridH: 75,
		IdealUpdates: 10,
		PercTrials:   200,
		PercGrids:    []int{10, 20, 30, 40},
		NetNodes:     50,
		NetRuns:      10,
		NetDuration:  500 * time.Second,
		QSweep:       SweepRange(0, 1, 0.1),
		PSweepIdeal:  []float64{0.05, 0.25, 0.375, 0.5, 0.75},
		PSweepNet:    []float64{0.05, 0.1, 0.25, 0.5},
		DeltaSweep:   []float64{8, 10, 12, 14, 16, 18},
		HopNear:      20,
		HopFar:       60,
		NetTrackHops: []int{2, 5},
		DutySweep:    []float64{0.05, 0.1, 0.2, 1.0 / 3, 0.5, 1},
		Seed:         1,
	}
}

// Quick returns a reduced configuration for CI and benchmarks: 30×30
// grids, 3 runs per point, shorter scenarios, coarser sweeps.
func Quick() Scale {
	return Scale{
		GridW: 30, GridH: 30,
		IdealUpdates: 4,
		PercTrials:   40,
		PercGrids:    []int{10, 20, 30},
		NetNodes:     30,
		NetRuns:      3,
		NetDuration:  300 * time.Second,
		QSweep:       SweepRange(0, 1, 0.25),
		PSweepIdeal:  []float64{0.05, 0.25, 0.5, 0.75},
		PSweepNet:    []float64{0.1, 0.5},
		DeltaSweep:   []float64{8, 12, 16},
		HopNear:      10,
		HopFar:       20,
		NetTrackHops: []int{2, 5},
		DutySweep:    []float64{0.1, 0.2, 0.5, 1},
		Seed:         1,
	}
}

// Bench returns the fixed benchmark configuration behind BENCH.json: large
// enough that the netsim kernel dominates (the large-n, long-horizon regime
// the paper's Section 5 cares about), small enough that the full registry
// finishes in CI time. Changing these dimensions invalidates every recorded
// baseline, so treat them as frozen; add a new preset instead of editing.
func Bench() Scale {
	return Scale{
		GridW: 40, GridH: 40,
		IdealUpdates: 4,
		PercTrials:   60,
		PercGrids:    []int{10, 20, 30},
		NetNodes:     100,
		NetRuns:      2,
		NetDuration:  1000 * time.Second,
		QSweep:       SweepRange(0, 1, 0.5),
		PSweepIdeal:  []float64{0.05, 0.5},
		PSweepNet:    []float64{0.1, 0.5},
		DeltaSweep:   []float64{8, 12, 16},
		HopNear:      10,
		HopFar:       25,
		NetTrackHops: []int{2, 5},
		DutySweep:    []float64{0.1, 0.5, 1},
		Seed:         1,
	}
}

// Large returns the scale-stress configuration: random fields of 10,000
// nodes — two hundred times the paper's Table 2 and past the point where
// per-run allocation would dominate wall time if the kernel still allocated
// per node. One run per point and a short horizon keep a single flagship
// scenario inside a CI smoke budget; the full registry at this scale is an
// overnight job, not a CI job. The pooled kernel is what makes this preset
// usable at all: steady-state points reuse the node arrays, adjacency
// buffers, and duplicate-filter bitsets of the points before them.
func Large() Scale {
	return Scale{
		GridW: 100, GridH: 100,
		IdealUpdates: 2,
		PercTrials:   40,
		PercGrids:    []int{20, 40},
		NetNodes:     10000,
		NetRuns:      1,
		NetDuration:  200 * time.Second,
		QSweep:       []float64{0, 0.5, 1},
		PSweepIdeal:  []float64{0.5},
		PSweepNet:    []float64{0.25},
		DeltaSweep:   []float64{10, 12},
		HopNear:      25,
		HopFar:       70,
		NetTrackHops: []int{2, 5},
		DutySweep:    []float64{0.1, 0.5, 1},
		Seed:         1,
	}
}

// presets lists the scale names the CLI accepts with their constructors,
// in the order they should be documented.
var presets = [...]struct {
	name  string
	build func() Scale
}{
	{"quick", Quick},
	{"paper", Paper},
	{"bench", Bench},
	{"large", Large},
}

// ScaleNames returns the preset names the CLI accepts, in documentation
// order.
func ScaleNames() []string {
	names := make([]string, len(presets))
	for i, p := range presets {
		names[i] = p.name
	}
	return names
}

// ByName returns the named scale preset ("quick", "paper", "bench", or
// "large"), building only that one.
func ByName(name string) (Scale, error) {
	for _, p := range presets {
		if p.name == name {
			return p.build(), nil
		}
	}
	return Scale{}, fmt.Errorf("scenario: unknown scale %q (want %s)", name, strings.Join(ScaleNames(), ", "))
}

// Knobs is the user-facing part of a run's identity: the scale preset and
// the overrides every entry point accepts. The JSON tags are the on-wire
// names of the /v1/run request, the stream, checkpoint and trace headers;
// RegisterFlags holds the CLI spelling and Resolve the one validation and
// canonicalization path. A new knob is one field here (plus the Scale
// field it sets), one flag line, one Resolve line, one appendScaleKey
// line and one Validate check.
type Knobs struct {
	// Scale names the preset ("quick", "paper", "bench", "large").
	Scale string `json:"scale"`
	// Seed is the root random seed; 0 means the preset's seed.
	Seed uint64 `json:"seed"`
	// Protocol selects the broadcast protocol of network scenarios; empty
	// means PBBF. See Scale.Protocol.
	Protocol string `json:"protocol,omitempty"`
	// EnergyJ and HarvestW are the finite-energy axis; see Scale.
	EnergyJ  float64 `json:"energy_j,omitempty"`
	HarvestW float64 `json:"harvest_w,omitempty"`
}

// RegisterFlags binds the knobs to fs under their CLI names and defaults.
func (k *Knobs) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&k.Scale, "scale", "quick", "scenario scale: quick, paper, bench, or large")
	fs.Uint64Var(&k.Seed, "seed", 1, "root random seed")
	fs.StringVar(&k.Protocol, "protocol", "", "broadcast protocol for network scenarios: pbbf (default), sleepsched, or ola")
	fs.Float64Var(&k.EnergyJ, "energy", 0, "mean initial battery capacity in joules for network scenarios (0 = infinite battery)")
	fs.Float64Var(&k.HarvestW, "harvest", 0, "constant per-node energy-harvest rate in watts (requires -energy)")
}

// Resolve builds and validates the Scale the knobs select. It also
// returns the canonical knobs: the seed the run uses and the protocol's
// canonical spelling (empty for every PBBF spelling), so one computation
// always carries one identity and mints one set of PointKeys. An unknown
// protocol fails with the protocol registry's did-you-mean error.
func (k Knobs) Resolve() (Scale, Knobs, error) {
	s, err := ByName(k.Scale)
	if err != nil {
		return Scale{}, Knobs{}, err
	}
	if k.Seed != 0 {
		s.Seed = k.Seed
	}
	sp, err := protocol.SpecFor(k.Protocol)
	if err != nil {
		return Scale{}, Knobs{}, err
	}
	s.Protocol = sp.Canonical()
	s.EnergyJ, s.HarvestW = k.EnergyJ, k.HarvestW
	if err := s.Validate(); err != nil {
		return Scale{}, Knobs{}, err
	}
	k.Seed, k.Protocol = s.Seed, s.Protocol
	return s, k, nil
}

// Validate checks the scale's structural invariants.
func (s Scale) Validate() error {
	if s.GridW <= 0 || s.GridH <= 0 {
		return fmt.Errorf("scenario: grid %dx%d invalid", s.GridW, s.GridH)
	}
	if s.IdealUpdates <= 0 || s.PercTrials <= 0 || s.NetNodes <= 0 || s.NetRuns <= 0 {
		return fmt.Errorf("scenario: counts must be positive")
	}
	if s.NetDuration <= 0 {
		return fmt.Errorf("scenario: duration %v invalid", s.NetDuration)
	}
	if len(s.QSweep) == 0 || len(s.PSweepIdeal) == 0 || len(s.PSweepNet) == 0 {
		return fmt.Errorf("scenario: empty sweep")
	}
	if len(s.PercGrids) == 0 || len(s.DeltaSweep) == 0 {
		return fmt.Errorf("scenario: empty grid or density sweep")
	}
	if s.HopNear <= 0 || s.HopFar <= s.HopNear {
		return fmt.Errorf("scenario: hop distances %d/%d invalid", s.HopNear, s.HopFar)
	}
	if len(s.DutySweep) == 0 {
		return fmt.Errorf("scenario: empty duty-cycle sweep")
	}
	for _, d := range s.DutySweep {
		if d <= 0 || d > 1 {
			return fmt.Errorf("scenario: duty cycle %v outside (0,1]", d)
		}
	}
	// !(v >= 0) also rejects NaN, which every comparison fails.
	if !(s.EnergyJ >= 0) || math.IsInf(s.EnergyJ, 0) {
		return fmt.Errorf("scenario: initial energy %v must be finite and non-negative", s.EnergyJ)
	}
	if !(s.HarvestW >= 0) || math.IsInf(s.HarvestW, 0) {
		return fmt.Errorf("scenario: harvest rate %v must be finite and non-negative", s.HarvestW)
	}
	if s.HarvestW > 0 && s.EnergyJ == 0 {
		return fmt.Errorf("scenario: harvest rate %v requires a positive initial energy", s.HarvestW)
	}
	return nil
}

// SweepRange returns {from, from+step, ..., to} inclusive (within epsilon).
func SweepRange(from, to, step float64) []float64 {
	var out []float64
	for v := from; v <= to+1e-9; v += step {
		// Round to avoid 0.30000000000000004-style x values.
		out = append(out, float64(int(v*1000+0.5))/1000)
	}
	return out
}

// PointSeed derives a deterministic seed for one data point from the scale
// seed and the point's coordinates, so adding sweep values does not perturb
// other points.
func PointSeed(base uint64, parts ...uint64) uint64 {
	h := base ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		h ^= p + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h *= 0xbf58476d1ce4e5b9
	}
	return h
}

// FloatBits maps a float in [0,1]-ish sweeps to stable integer coordinates
// for seeding (3 decimal places of resolution).
func FloatBits(f float64) uint64 {
	return uint64(int64(f*1000 + 0.5))
}
