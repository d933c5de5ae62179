package scenario

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbbf/internal/stats"
)

func TestRunAllCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunAllCtx(ctx, []Scenario{fake("cancel")}, Quick(), RunOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunAllCtxIntercept(t *testing.T) {
	s := Quick()
	sc := fake("memo")
	want, err := RunAll([]Scenario{sc}, s, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Record every result on the first pass, then replay the recording on
	// the second: zero computations, identical output, Cached events.
	// Intercept runs on the sweep workers concurrently, so the recording
	// is guarded.
	var mu sync.Mutex
	recorded := make(map[string]Result)
	var computes atomic.Int32
	runWith := func(replay bool) ([]Output, []PointEvent) {
		var events []PointEvent
		outs, err := RunAllCtx(context.Background(), []Scenario{sc}, s, RunOptions{
			Workers: 3,
			Intercept: func(sc Scenario, pt Point, compute func() (Result, error)) (Result, bool, error) {
				key := PointKey(sc.ID, s, pt)
				if replay {
					mu.Lock()
					res, ok := recorded[key]
					mu.Unlock()
					if !ok {
						t.Errorf("point %s not recorded", pt.Label())
					}
					return res, true, nil
				}
				computes.Add(1)
				res, err := compute()
				mu.Lock()
				recorded[key] = res
				mu.Unlock()
				return res, false, err
			},
			OnPoint: func(ev PointEvent) { events = append(events, ev) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs, events
	}

	outs, events := runWith(false)
	if !reflect.DeepEqual(outs[0].Table, want[0].Table) {
		t.Fatal("intercepted run changed the table")
	}
	if got := computes.Load(); got != 6 {
		t.Fatalf("computed %d points, want 6", got)
	}
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	seen := make(map[int]bool)
	for i, ev := range events {
		if ev.Done != i+1 || ev.Total != 6 {
			t.Fatalf("event %d has Done/Total %d/%d", i, ev.Done, ev.Total)
		}
		if ev.Cached {
			t.Fatalf("fresh computation flagged cached: %+v", ev)
		}
		if ev.Point == nil || ev.ScenarioID != "memo" {
			t.Fatalf("malformed event %+v", ev)
		}
		seen[ev.Index] = true
	}
	for i := 0; i < 6; i++ {
		if !seen[i] {
			t.Fatalf("no event for job index %d", i)
		}
	}

	outs, events = runWith(true)
	if !reflect.DeepEqual(outs[0].Table, want[0].Table) {
		t.Fatal("replayed run changed the table")
	}
	if got := computes.Load(); got != 6 {
		t.Fatalf("replay recomputed (%d total computes)", got)
	}
	for _, ev := range events {
		if !ev.Cached {
			t.Fatalf("replayed event not flagged cached: %+v", ev)
		}
	}
}

func TestRunAllCtxTableEvents(t *testing.T) {
	static := Scenario{
		ID: "static", Title: "static", Artifact: "Table 9", Summary: "static table",
		TableFn: func(Scale) (*stats.Table, error) {
			tbl := &stats.Table{Title: "static", XLabel: "x", YLabel: "y"}
			tbl.AddSeries("s").Append(1, 2)
			return tbl, nil
		},
	}
	var events []PointEvent
	outs, err := RunAllCtx(context.Background(), []Scenario{static}, Quick(), RunOptions{
		Workers: 1,
		OnPoint: func(ev PointEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Table == nil || events[0].Point != nil {
		t.Fatalf("TableFn events wrong: %+v", events)
	}
	if outs[0].Table.Title != "static" {
		t.Fatalf("table lost: %+v", outs[0])
	}
}

func TestPointLabel(t *testing.T) {
	pt := Point{Series: "g=10", X: 0.5, Params: map[string]float64{"q": 0.3, "p": 0.05}}
	if got, want := pt.Label(), `series "g=10" x=0.5 [p=0.05 q=0.3]`; got != want {
		t.Fatalf("Label() = %q, want %q", got, want)
	}
	bare := Point{Series: "a", X: 2}
	if got, want := bare.Label(), `series "a" x=2`; got != want {
		t.Fatalf("Label() = %q, want %q", got, want)
	}
}

func TestInterceptErrorAttribution(t *testing.T) {
	sc := fake("inter")
	_, err := RunAllCtx(context.Background(), []Scenario{sc}, Quick(), RunOptions{
		Workers: 1,
		Intercept: func(sc Scenario, pt Point, compute func() (Result, error)) (Result, bool, error) {
			return Result{}, false, fmt.Errorf("store unavailable")
		},
	})
	if err == nil || !strings.Contains(err.Error(), "inter: point series") {
		t.Fatalf("intercept error not attributed: %v", err)
	}
}

// baselines returns a q-sweep shaped like the paper's: a "PBBF" line whose
// q follows x, and a "PSM" line pinned at p=q=0 at every x, so the PSM
// points after the first repeat it. Its result depends on Params alone;
// computes counts the computations of each parameter assignment.
func baselines(computes *sync.Map) Scenario {
	sc := fake("base")
	sc.Params = []ParamDoc{{Name: "p", Desc: "p"}, {Name: "q", Desc: "q"}}
	sc.Points = func(Scale) ([]Point, error) {
		var pts []Point
		for _, series := range []string{"PBBF", "PSM"} {
			for x := 0.0; x < 4; x++ {
				params := map[string]float64{"p": 0, "q": 0}
				if series == "PBBF" {
					params = map[string]float64{"p": 0.5, "q": x / 4}
				}
				pts = append(pts, Point{Series: series, X: x, Params: params})
			}
		}
		return pts, nil
	}
	sc.RunPoint = func(_ Scale, pt Point) (Result, error) {
		n, _ := computes.LoadOrStore(fmt.Sprint(pt.Params), new(atomic.Int32))
		n.(*atomic.Int32).Add(1)
		return Result{Y: 1 + pt.Params["p"] + 10*pt.Params["q"]}, nil
	}
	return sc
}

func TestPlanComputesRepeatsOnce(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprint("workers=", workers), func(t *testing.T) {
			var computes sync.Map
			var events []PointEvent
			outs, err := RunAllCtx(context.Background(), []Scenario{baselines(&computes)}, Quick(), RunOptions{
				Workers: workers,
				OnPoint: func(ev PointEvent) { events = append(events, ev) },
			})
			if err != nil {
				t.Fatal(err)
			}
			distinct := 0
			computes.Range(func(k, n any) bool {
				distinct++
				if got := n.(*atomic.Int32).Load(); got != 1 {
					t.Errorf("params %v computed %d times, want once", k, got)
				}
				return true
			})
			if distinct != 5 {
				t.Fatalf("computed %d distinct assignments, want 5", distinct)
			}
			if len(events) != 8 {
				t.Fatalf("got %d events, want one per point (8)", len(events))
			}
			psm := outs[0].Table.Series[1]
			if psm.Name != "PSM" || !reflect.DeepEqual(psm.Y, []float64{1, 1, 1, 1}) ||
				!reflect.DeepEqual(psm.X, []float64{0, 1, 2, 3}) {
				t.Fatalf("PSM line = %+v, want y=1 at x=0..3", psm)
			}
		})
	}
}

func TestRepeatTakesRecordedLeader(t *testing.T) {
	// The leader is answered from a record, as on checkpoint resume; the
	// repeats are not, so they reach compute and must get the record.
	var computes sync.Map
	sc := baselines(&computes)
	recorded := Result{Y: 42, EnergyJ: 7}
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		cached := make(map[float64]bool)
		outs, err := RunAllCtx(context.Background(), []Scenario{sc}, Quick(), RunOptions{
			Workers: workers,
			Intercept: func(_ Scenario, pt Point, compute func() (Result, error)) (Result, bool, error) {
				if pt.Series == "PSM" && pt.X == 0 {
					return recorded, true, nil
				}
				res, err := compute()
				return res, false, err
			},
			OnPoint: func(ev PointEvent) {
				mu.Lock()
				defer mu.Unlock()
				if ev.Point.Series == "PSM" {
					cached[ev.Point.X] = ev.Cached
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := computes.Load(fmt.Sprint(map[string]float64{"p": 0, "q": 0})); ok {
			t.Fatal("a repeat of a recorded leader computed")
		}
		for i, po := range outs[0].Points[4:] {
			if po.Result != recorded {
				t.Fatalf("workers=%d: PSM point %d = %+v, want the leader's record %+v", workers, i, po.Result, recorded)
			}
		}
		if !reflect.DeepEqual(cached, map[float64]bool{0: true, 1: false, 2: false, 3: false}) {
			t.Fatalf("workers=%d: Cached flags %v, want the leader's alone", workers, cached)
		}
	}
}

func TestFailingLeaderReportsAtItsIndex(t *testing.T) {
	sc := baselines(new(sync.Map))
	sc.RunPoint = func(_ Scale, pt Point) (Result, error) {
		if pt.Series == "PSM" {
			return Result{}, errors.New("boom")
		}
		return Result{Y: 1}, nil
	}
	for _, workers := range []int{1, 4} {
		_, err := RunAll([]Scenario{sc}, Quick(), workers)
		if err == nil || err.Error() != `base: point series "PSM" x=0 [p=0 q=0]: boom` {
			t.Fatalf("workers=%d: err = %v, want the leader's error", workers, err)
		}
	}
}

func TestCancelReleasesWaitingRepeat(t *testing.T) {
	sc := baselines(new(sync.Map))
	started, release := make(chan struct{}), make(chan struct{})
	sc.RunPoint = nil
	sc.RunPointCtx = func(_ context.Context, _ Scale, pt Point) (Result, error) {
		if pt.Series == "PSM" {
			close(started)
			<-release // a leader that ignores cancellation
		}
		return Result{Y: 1}, nil
	}
	sc.Points = func(Scale) ([]Point, error) {
		pin := map[string]float64{"p": 0, "q": 0}
		return []Point{{Series: "PSM", X: 0, Params: pin}, {Series: "PSM", X: 1, Params: pin}}, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiting, returned := make(chan struct{}), make(chan error, 1)
	done := make(chan error, 1)
	go func() {
		_, err := RunAllCtx(ctx, []Scenario{sc}, Quick(), RunOptions{
			Workers: 2,
			Intercept: func(_ Scenario, pt Point, compute func() (Result, error)) (Result, bool, error) {
				if pt.X == 1 {
					close(waiting)
				}
				res, err := compute()
				if pt.X == 1 {
					returned <- err
				}
				return res, false, err
			},
		})
		done <- err
	}()
	<-started
	<-waiting
	cancel()
	select {
	case err := <-returned:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("repeat returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("cancelled repeat still waits on its leader")
	}
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
}

// A point equal to an earlier one in X too shares its PointKey: it is the
// same point, left to the Intercept's de-duplication, not a repeat whose
// compute would wait on it.
func TestExactDuplicateIsNotARepeat(t *testing.T) {
	pin := map[string]float64{"p": 0, "q": 0}
	pts := []Point{
		{Series: "PSM", X: 0, Params: pin},
		{Series: "PSM", X: 1, Params: pin},
		{Series: "PSM", X: 0, Params: pin},
		{Series: "NO PSM", X: 1, Params: pin},
		{Series: "PSM", X: 2, Params: map[string]float64{"p": 0, "q": 0, "delta": 10}},
	}
	for i, want := range []int{0, 0, 2, 3, 4} {
		if got := leader(pts, i); got != want {
			t.Fatalf("leader of point %d = %d, want %d", i, got, want)
		}
	}
}
