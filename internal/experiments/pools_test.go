package experiments

import (
	"context"
	"testing"

	"pbbf/internal/raceflag"
	"pbbf/internal/scenario"
)

// idlePools reports how many pool bundles sit on the free list.
func idlePools() int {
	poolFree.Lock()
	defer poolFree.Unlock()
	return len(poolFree.list)
}

// TestPointsLeasePools: a point holds its pool bundle only while it
// computes. With one sweep worker the previous point's bundle is back on
// the free list before every later point starts — for the netsim points
// (fig13) and the ideal-MAC points (fig8) alike — and a lease allocates
// nothing.
func TestPointsLeasePools(t *testing.T) {
	// Start from an empty free list so bundles other tests released cannot
	// stand in for the one under test; hand them back afterwards.
	poolFree.Lock()
	saved := poolFree.list
	poolFree.list = nil
	poolFree.Unlock()
	t.Cleanup(func() {
		poolFree.Lock()
		poolFree.list = append(poolFree.list, saved...)
		poolFree.Unlock()
	})

	for _, id := range []string{"fig13", "fig8"} {
		sc, err := Registry().ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		points := 0 // one worker: the intercept never runs concurrently
		_, err = scenario.RunAllCtx(context.Background(), []scenario.Scenario{sc}, tinyScale(), scenario.RunOptions{
			Workers: 1,
			Intercept: func(_ scenario.Scenario, _ scenario.Point, compute func() (scenario.Result, error)) (scenario.Result, bool, error) {
				if points > 0 && idlePools() == 0 {
					t.Errorf("%s point %d: no idle bundle on the free list; the previous point kept its lease", id, points)
				}
				points++
				res, err := compute()
				return res, false, err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if points < 2 {
			t.Fatalf("%s ran %d points; the check needs at least 2", id, points)
		}
	}

	if raceflag.Enabled {
		return // race detector instrumentation allocates
	}
	if allocs := testing.AllocsPerRun(100, func() { releasePools(acquirePools()) }); allocs != 0 {
		t.Fatalf("a pool lease allocated %v times, want 0", allocs)
	}
}
