package scenario

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"

	"pbbf/internal/stats"
	"pbbf/internal/sweep"
)

// PointOutput pairs one enumerated point with its simulated result — the
// per-point record behind the JSON output.
type PointOutput struct {
	Point
	Result Result `json:"result"`
}

// Output is one scenario's complete run: the assembled table plus, for
// point-based scenarios, every point's result.
type Output struct {
	// Scenario carries the metadata of the scenario that ran.
	Scenario Scenario `json:"scenario"`
	// Table is the assembled figure/table data.
	Table *stats.Table `json:"table"`
	// Points holds the per-point results (nil for TableFn scenarios).
	Points []PointOutput `json:"points,omitempty"`
}

// PointEvent reports one completed job of a run to RunOptions.OnPoint.
// Exactly one of Point or Table is non-nil: Point for a parameter point,
// Table for a TableFn scenario's whole artifact.
type PointEvent struct {
	// ScenarioID names the scenario the job belongs to.
	ScenarioID string
	// Index is the job's position in the flattened run — the deterministic
	// enumeration order (scenario by scenario, point by point). Consumers
	// that need ordered delivery can reorder on it.
	Index int
	// Done and Total count completed jobs and the run's job count.
	Done, Total int
	// Point is the completed point with its result (nil for TableFn jobs).
	Point *PointOutput
	// Table is the completed TableFn artifact (nil for point jobs).
	Table *stats.Table
	// Cached reports that the result came from RunOptions.Intercept's
	// record rather than a fresh computation.
	Cached bool
}

// RunOptions tunes a RunAllCtx call beyond the scale itself.
type RunOptions struct {
	// Workers sizes the sweep pool; <= 0 selects GOMAXPROCS.
	Workers int
	// Intercept, when non-nil, wraps every point computation. It may
	// return a previously recorded result (recorded=true) instead of
	// calling compute — the hook behind the result cache and resumable
	// checkpoints. A repeated point (see Scenario) passes through it like
	// any other, but its compute returns the result its leader got from
	// Intercept, recorded or computed, instead of simulating again. It is
	// called concurrently from worker goroutines and must be safe for
	// concurrent use. TableFn jobs are deliberately not intercepted: the
	// static/analytic artifacts (Table 1/2, closed-form curves) are
	// sub-millisecond and recompute on every run.
	Intercept func(sc Scenario, pt Point, compute func() (Result, error)) (res Result, recorded bool, err error)
	// OnPoint, when non-nil, is invoked after each job completes. Calls
	// are serialized by the engine (no locking needed inside) but arrive
	// in completion order, not enumeration order.
	OnPoint func(PointEvent)
}

// Run executes one scenario at the given scale and returns its table,
// fanning its parameter points out across the default worker pool.
func Run(sc Scenario, s Scale) (*stats.Table, error) {
	outs, err := RunAll([]Scenario{sc}, s, 0)
	if err != nil {
		return nil, err
	}
	return outs[0].Table, nil
}

// RunAll executes the given scenarios at one scale with the given worker
// count (<= 0 selects GOMAXPROCS). It is RunAllCtx without cancellation or
// hooks — the batch path used by the CLI, benchmarks, and tests.
func RunAll(scenarios []Scenario, s Scale, workers int) ([]Output, error) {
	return RunAllCtx(context.Background(), scenarios, s, RunOptions{Workers: workers})
}

// RunAllCtx executes the given scenarios at one scale. Every parameter
// point of every point-based scenario — and every TableFn — becomes one job
// in a single flattened sweep.MapCtx call, so `-experiment all` saturates
// the worker pool across figure boundaries instead of running figures one
// at a time. Output order matches the input order and is fully
// deterministic: points are enumerated scenario by scenario, results are
// assembled by index, and errors surface from the smallest failing job
// index, wrapped with the scenario ID and the point's full parameter
// assignment. Cancelling ctx stops the run after in-flight points drain
// and returns the context's error. It is NewPlan, Plan.Run and the
// assembly of each scenario's table.
func RunAllCtx(ctx context.Context, scenarios []Scenario, s Scale, opts RunOptions) ([]Output, error) {
	p, err := NewPlan(scenarios, s)
	if err != nil {
		return nil, err
	}
	results, err := p.run(ctx, opts)
	if err != nil {
		return nil, err
	}
	return p.assemble(results), nil
}

// Plan is a validated, enumerated run: the scale, the scenarios and every
// job of the flattened sweep, fixed before anything is computed. A caller
// that streams results as they complete (the HTTP run endpoint) plans
// once, states the job count, and runs the plan without assembling tables.
type Plan struct {
	scenarios []Scenario
	scale     Scale
	jobs      []job
	points    [][]Point // per scenario; nil for TableFn scenarios
}

// job is one unit of a plan: a parameter point, or a TableFn scenario's
// whole table.
type job struct {
	si int // scenario index
	pi int // point index; -1 runs the scenario's TableFn
	// lead is the job whose result this job's point computation returns:
	// the job itself, or for a repeat the scenario's first point with the
	// same Series and Params. A point's result depends only on the scale
	// and its Params (see Scenario), so a repeat differs from its leader
	// only in its labels.
	lead int
}

// share carries a leader's result, recorded or computed, to its repeats.
// res and err are written once, before done is closed.
type share struct {
	done chan struct{}
	res  Result
	err  error
}

// jobOut is one completed job.
type jobOut struct {
	table *stats.Table // TableFn jobs
	res   Result       // point jobs
}

// NewPlan validates the scale and scenarios and enumerates every job.
func NewPlan(scenarios []Scenario, s Scale) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{scenarios: scenarios, scale: s, points: make([][]Point, len(scenarios))}
	for si, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if sc.TableFn != nil {
			p.jobs = append(p.jobs, job{si, -1, len(p.jobs)})
			continue
		}
		pts, err := sc.Points(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.ID, err)
		}
		for _, pt := range pts {
			if pt.Series == "" {
				return nil, fmt.Errorf("%s: point %+v has no series", sc.ID, pt)
			}
			for name := range pt.Params {
				if !sc.paramDoc(name) {
					return nil, fmt.Errorf("%s: point parameter %q undocumented", sc.ID, name)
				}
			}
		}
		p.points[si] = pts
		base := len(p.jobs)
		p.jobs = slices.Grow(p.jobs, len(pts))
		for pi := range pts {
			p.jobs = append(p.jobs, job{si, pi, base + leader(pts, pi)})
		}
	}
	return p, nil
}

// leader returns the index of the first of pts whose Series and Params
// equal pts[i]'s, or i itself when none does. A match with pts[i]'s X
// too is the same point under the same PointKey, not a repeat: that is
// left to the Intercept's own de-duplication, which would otherwise make
// the leader wait on its repeat's in-flight computation.
func leader(pts []Point, i int) int {
	pt := pts[i]
	for qi, q := range pts[:i] {
		if q.Series == pt.Series && maps.Equal(q.Params, pt.Params) {
			if q.X == pt.X {
				return i
			}
			return qi
		}
	}
	return i
}

// Jobs is the plan's job count: one per parameter point plus one per
// TableFn scenario.
func (p *Plan) Jobs() int { return len(p.jobs) }

// Run computes every job, reporting each through opts.OnPoint, and
// assembles nothing. Its errors are RunAllCtx's.
func (p *Plan) Run(ctx context.Context, opts RunOptions) error {
	_, err := p.run(ctx, opts)
	return err
}

func (p *Plan) run(ctx context.Context, opts RunOptions) ([]jobOut, error) {
	// done counts completed jobs; eventMu serializes OnPoint so consumers
	// never see interleaved or out-of-count events.
	var (
		eventMu sync.Mutex
		done    int
	)
	emit := func(ev PointEvent) {
		if opts.OnPoint == nil {
			return
		}
		eventMu.Lock()
		done++
		ev.Done, ev.Total = done, len(p.jobs)
		opts.OnPoint(ev)
		eventMu.Unlock()
	}

	// Each leader with repeats hands its result to them through a share;
	// a plan without repeats allocates nothing here.
	var shares map[int]*share
	for i, j := range p.jobs {
		if j.lead != i && shares[j.lead] == nil {
			if shares == nil {
				shares = make(map[int]*share)
			}
			shares[j.lead] = &share{done: make(chan struct{})}
		}
	}

	s := p.scale
	return sweep.MapCtx(ctx, len(p.jobs), opts.Workers, func(ctx context.Context, i int) (jobOut, error) {
		j := p.jobs[i]
		sc := &p.scenarios[j.si] // the compute closure captures it; no copy
		if j.pi < 0 {
			tbl, err := sc.TableFn(s)
			if err != nil {
				return jobOut{}, fmt.Errorf("%s: %w", sc.ID, err)
			}
			emit(PointEvent{ScenarioID: sc.ID, Index: i, Table: tbl})
			return jobOut{table: tbl}, nil
		}
		pt := p.points[j.si][j.pi]
		var compute func() (Result, error)
		if j.lead == i {
			compute = func() (Result, error) { return sc.ComputePoint(ctx, s, pt) }
		} else {
			// The leader has the smaller index, so a worker claimed it
			// first and it finishes without waiting on this job.
			sh := shares[j.lead]
			compute = func() (Result, error) {
				select {
				case <-sh.done:
					return sh.res, sh.err
				case <-ctx.Done():
					return Result{}, ctx.Err()
				}
			}
		}
		var (
			res      Result
			recorded bool
			err      error
		)
		if opts.Intercept != nil {
			res, recorded, err = opts.Intercept(*sc, pt, compute)
		} else {
			res, err = compute()
		}
		if sh := shares[i]; sh != nil {
			sh.res, sh.err = res, err
			close(sh.done)
		}
		if err != nil {
			return jobOut{}, fmt.Errorf("%s: point %s: %w", sc.ID, pt.Label(), err)
		}
		emit(PointEvent{
			ScenarioID: sc.ID,
			Index:      i,
			Point:      &PointOutput{Point: pt, Result: res},
			Cached:     recorded,
		})
		return jobOut{res: res}, nil
	})
}

// assemble builds each scenario's Output from the plan's completed jobs.
func (p *Plan) assemble(results []jobOut) []Output {
	outs := make([]Output, len(p.scenarios))
	for si, sc := range p.scenarios {
		outs[si] = Output{Scenario: sc}
	}
	for ji, j := range p.jobs {
		out := &outs[j.si]
		if j.pi < 0 {
			out.Table = results[ji].table
			continue
		}
		out.Points = append(out.Points, PointOutput{
			Point:  p.points[j.si][j.pi],
			Result: results[ji].res,
		})
	}
	for si := range outs {
		if outs[si].Table != nil {
			continue // TableFn scenario
		}
		outs[si].Table = assemble(p.scenarios[si], outs[si].Points)
		if loc := p.scenarios[si].Localize; loc != nil {
			loc(p.scale, outs[si].Table)
		}
	}
	return outs
}

// Label renders the point's coordinates for error and progress messages:
// the series, the x value, and the full parameter assignment with sorted
// keys, so a failing point in a multi-figure run is attributable from the
// message alone.
func (p Point) Label() string {
	b := fmt.Appendf(nil, "series %q x=%g", p.Series, p.X)
	if len(p.Params) > 0 {
		b = appendSortedParams(append(b, " ["...), p.Params, ' ')
		b = append(b, ']')
	}
	return string(b)
}

// assemble folds per-point results into the scenario's output table.
// Series appear in first-point order; points append in enumeration order,
// so the table is identical however the jobs were scheduled.
func assemble(sc Scenario, pts []PointOutput) *stats.Table {
	tbl := &stats.Table{Title: sc.Title, XLabel: sc.XLabel, YLabel: sc.YLabel}
	series := make(map[string]*stats.Series)
	for _, po := range pts {
		line, ok := series[po.Series]
		if !ok {
			line = tbl.AddSeries(po.Series)
			series[po.Series] = line
		}
		if !po.Result.Skip {
			line.Append(po.X, po.Result.Y)
		}
	}
	return tbl
}
