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
