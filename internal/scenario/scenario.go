// Package scenario is the unified experiment engine: it defines what a
// runnable scenario is (an identifier, metadata, a parameter space, and a
// per-point run function), a registry that holds every scenario the binary
// knows about, and a parallel runner that fans every parameter point of
// every selected scenario out across one bounded worker pool
// (internal/sweep) with deterministic, index-ordered assembly.
//
// The layering is:
//
//	core/mac/phy/...  →  idealsim, netsim     (simulation engines)
//	idealsim, netsim  →  experiments          (scenario definitions)
//	experiments       →  scenario.Registry    (registration + metadata)
//	scenario.RunAll   →  cmd/pbbf, tests      (parallel execution, output)
//
// Adding a workload means registering one Scenario value: the engine takes
// care of concurrency, seeding conventions, table assembly, and the
// table/CSV/JSON output paths.
package scenario

import (
	"context"
	"fmt"

	"pbbf/internal/stats"
)

// ParamDoc documents one dimension of a scenario's parameter space. The
// registry requires every point-based scenario to document each parameter
// it emits in Point.Params.
type ParamDoc struct {
	// Name is the key used in Point.Params.
	Name string `json:"name"`
	// Desc says what the parameter means and what range it sweeps.
	Desc string `json:"desc"`
}

// Point is one coordinate assignment in a scenario's parameter space: one
// simulated data point of one plotted line.
type Point struct {
	// Series names the plotted line this point belongs to.
	Series string `json:"series"`
	// X is the point's x coordinate in the output table.
	X float64 `json:"x"`
	// Params is the full parameter assignment, keyed by ParamDoc names.
	Params map[string]float64 `json:"params"`
}

// Result is the common shape of one simulated point: the plotted value
// plus the standard energy/latency/delivery triple every broadcast
// scenario in this repository can report. The triple feeds the JSON
// output so dashboards can cut across scenarios without knowing each
// figure's y axis.
type Result struct {
	// Y is the value plotted on the scenario's y axis.
	Y float64 `json:"y"`
	// Skip marks a point that produced no data (omitted from the series).
	Skip bool `json:"skip,omitempty"`
	// EnergyJ is joules consumed per update sent at the source (0 when the
	// scenario does not measure energy).
	EnergyJ float64 `json:"energy_j,omitempty"`
	// LatencyS is the scenario's latency metric in seconds (0 when not
	// measured).
	LatencyS float64 `json:"latency_s,omitempty"`
	// Delivery is the delivered fraction in [0,1] (0 when not measured).
	Delivery float64 `json:"delivery,omitempty"`

	// Network-lifetime block, populated only on finite-energy workloads
	// (all zero — and omitted from the wire — on the infinite-battery
	// runs that existed before the energy axis).
	//
	// FirstDeathS and HalfDeadS are censored at the simulation horizon.
	FirstDeathS float64 `json:"first_death_s,omitempty"`
	HalfDeadS   float64 `json:"half_dead_s,omitempty"`
	// AliveFrac is the alive-node fraction at the horizon.
	AliveFrac float64 `json:"alive_frac,omitempty"`
	// Depleted is the mean battery-depletion death count per run.
	Depleted float64 `json:"depleted,omitempty"`
	// EnergyVarJ2 is the population variance of per-node consumed joules
	// — how (un)evenly the protocol spreads its spending.
	EnergyVarJ2 float64 `json:"energy_var_j2,omitempty"`
}

// Scenario is one registrable workload. Exactly one execution mode must be
// set: either the point-based pair (Points + RunPoint), which the engine
// parallelizes per parameter point, or TableFn for artifacts that are
// static or analytic (Table 1/2, closed-form curves) and produce their
// table directly.
//
// A point's result depends only on the Scale and the point's Params; its
// Series and X are labels that place the result in the table. The engine
// relies on this: a point whose Series and Params equal an earlier point
// of the same scenario (the PSM and NO PSM baselines a q-sweep draws at
// every q) is computed once per plan, and each repeat returns that
// computation's result under its own labels.
type Scenario struct {
	// ID is the short handle used by the CLI ("fig4", "table1", ...).
	ID string `json:"id"`
	// Title describes the regenerated artifact.
	Title string `json:"title"`
	// Artifact maps the scenario to the paper: "Table 1", "Figure 8",
	// "extension" for beyond-the-paper scenarios.
	Artifact string `json:"artifact"`
	// Summary is one or two sentences of metadata for -list and the docs.
	Summary string `json:"summary"`
	// Params documents the scenario's parameter space.
	Params []ParamDoc `json:"params,omitempty"`
	// XLabel and YLabel name the output table's columns.
	XLabel string `json:"x_label"`
	YLabel string `json:"y_label"`
	// Protocols lists the broadcast protocols the scenario exercises, for
	// -list and the HTTP scenario metadata. The registry fills the default
	// (PBBF only) at registration; scenarios that sweep or pin something
	// else declare it themselves.
	Protocols []string `json:"protocols,omitempty"`

	// Points enumerates the parameter space at the given scale.
	Points func(Scale) ([]Point, error) `json:"-"`
	// RunPoint simulates one point. It reads the point's Params, never
	// its Series or X, and derives all randomness from Scale.Seed and the
	// Params (via PointSeed) so points are order-independent.
	RunPoint func(Scale, Point) (Result, error) `json:"-"`
	// RunPointCtx is RunPoint for scenarios that read the run's context —
	// the netsim scenarios, which take their per-run trace sink from a
	// trace.Provider the `pbbf trace` path puts there. Set exactly one of
	// RunPoint and RunPointCtx; the context never changes the result.
	RunPointCtx func(context.Context, Scale, Point) (Result, error) `json:"-"`
	// TableFn produces the whole table directly (static/analytic artifacts).
	TableFn func(Scale) (*stats.Table, error) `json:"-"`
	// Localize, when set on a point-based scenario, rewrites the assembled
	// table's title and axis labels for the scale that actually ran (e.g.
	// Figures 9/10 embed the scale's tracked hop distance). TableFn
	// scenarios control their table directly and ignore it.
	Localize func(Scale, *stats.Table) `json:"-"`
}

// Validate checks the scenario's structural and metadata completeness
// requirements for registration.
func (sc Scenario) Validate() error {
	if sc.ID == "" {
		return fmt.Errorf("scenario: empty ID")
	}
	if sc.Title == "" || sc.Artifact == "" || sc.Summary == "" {
		return fmt.Errorf("scenario %s: missing metadata (title/artifact/summary)", sc.ID)
	}
	pointBased := sc.Points != nil || sc.RunPoint != nil || sc.RunPointCtx != nil
	if pointBased && (sc.Points == nil || (sc.RunPoint == nil && sc.RunPointCtx == nil)) {
		return fmt.Errorf("scenario %s: Points and RunPoint/RunPointCtx must be set together", sc.ID)
	}
	if sc.RunPoint != nil && sc.RunPointCtx != nil {
		return fmt.Errorf("scenario %s: RunPoint and RunPointCtx are mutually exclusive", sc.ID)
	}
	if pointBased == (sc.TableFn != nil) {
		return fmt.Errorf("scenario %s: exactly one of Points/RunPoint or TableFn must be set", sc.ID)
	}
	if pointBased {
		if len(sc.Params) == 0 {
			return fmt.Errorf("scenario %s: point-based scenario must document its parameters", sc.ID)
		}
		if sc.XLabel == "" || sc.YLabel == "" {
			return fmt.Errorf("scenario %s: missing axis labels", sc.ID)
		}
	}
	for _, p := range sc.Params {
		if p.Name == "" || p.Desc == "" {
			return fmt.Errorf("scenario %s: incomplete parameter doc %+v", sc.ID, p)
		}
	}
	return nil
}

// PointBased reports whether the scenario runs through the per-point path.
func (sc Scenario) PointBased() bool {
	return sc.RunPoint != nil || sc.RunPointCtx != nil
}

// ComputePoint simulates one parameter point through whichever entry point
// the scenario defines. ctx only carries execution environment (an
// optional trace provider); it cannot change the computed result.
func (sc Scenario) ComputePoint(ctx context.Context, s Scale, pt Point) (Result, error) {
	if sc.RunPointCtx != nil {
		return sc.RunPointCtx(ctx, s, pt)
	}
	if sc.RunPoint == nil {
		return Result{}, fmt.Errorf("scenario %s: not point-based", sc.ID)
	}
	return sc.RunPoint(s, pt)
}

// paramDoc returns whether the scenario documents the named parameter.
func (sc Scenario) paramDoc(name string) bool {
	for _, p := range sc.Params {
		if p.Name == name {
			return true
		}
	}
	return false
}
