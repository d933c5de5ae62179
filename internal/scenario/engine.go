package scenario

import (
	"context"
	"fmt"
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
	// checkpoints. It is called concurrently from worker goroutines and
	// must be safe for concurrent use. TableFn jobs are deliberately not
	// intercepted: the static/analytic artifacts (Table 1/2, closed-form
	// curves) are sub-millisecond and recompute on every run.
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
// and returns the context's error.
func RunAllCtx(ctx context.Context, scenarios []Scenario, s Scale, opts RunOptions) ([]Output, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	type job struct {
		si int // scenario index
		pi int // point index; -1 runs the scenario's TableFn
	}
	var jobs []job
	points := make([][]Point, len(scenarios))
	for si, sc := range scenarios {
		if err := sc.Validate(); err != nil {
			return nil, err
		}
		if sc.TableFn != nil {
			jobs = append(jobs, job{si, -1})
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
		points[si] = pts
		for pi := range pts {
			jobs = append(jobs, job{si, pi})
		}
	}

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
		ev.Done, ev.Total = done, len(jobs)
		opts.OnPoint(ev)
		eventMu.Unlock()
	}

	type jobOut struct {
		table *stats.Table // TableFn jobs
		res   Result       // point jobs
	}
	results, err := sweep.MapCtx(ctx, len(jobs), opts.Workers, func(wctx context.Context, i int) (jobOut, error) {
		j := jobs[i]
		sc := scenarios[j.si]
		if j.pi < 0 {
			tbl, err := sc.TableFn(s)
			if err != nil {
				return jobOut{}, fmt.Errorf("%s: %w", sc.ID, err)
			}
			emit(PointEvent{ScenarioID: sc.ID, Index: i, Table: tbl})
			return jobOut{table: tbl}, nil
		}
		pt := points[j.si][j.pi]
		// wctx carries the worker's pool cache (sweep.Locals), letting
		// context-aware scenarios reuse simulation state across the points
		// this worker claims.
		compute := func() (Result, error) { return sc.ComputePoint(wctx, s, pt) }
		var (
			res      Result
			recorded bool
			err      error
		)
		if opts.Intercept != nil {
			res, recorded, err = opts.Intercept(sc, pt, compute)
		} else {
			res, err = compute()
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
	if err != nil {
		return nil, err
	}

	outs := make([]Output, len(scenarios))
	for si, sc := range scenarios {
		outs[si] = Output{Scenario: sc}
	}
	for ji, j := range jobs {
		out := &outs[j.si]
		if j.pi < 0 {
			out.Table = results[ji].table
			continue
		}
		out.Points = append(out.Points, PointOutput{
			Point:  points[j.si][j.pi],
			Result: results[ji].res,
		})
	}
	for si := range outs {
		if outs[si].Table != nil {
			continue // TableFn scenario
		}
		outs[si].Table = assemble(scenarios[si], outs[si].Points)
		if loc := scenarios[si].Localize; loc != nil {
			loc(s, outs[si].Table)
		}
	}
	return outs, nil
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
