package eventq

import (
	"testing"
	"time"

	"pbbf/internal/raceflag"
)

// TestQueueSteadyStateZeroAlloc pins the event-queue hot path to zero
// allocations: once the heap array has grown to the working set, the
// push/pop cycle every simulated event goes through must reuse it instead
// of allocating. The callback is bound once outside the measured loop — in
// the simulator all recurring callbacks are pre-bound the same way.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	var q Queue
	fn := func() {}
	// Warm the heap array to the loop's working set.
	for i := 0; i < 64; i++ {
		q.Push(time.Duration(i), fn)
	}
	for {
		if _, _, ok := q.Pop(); !ok {
			break
		}
	}
	at := time.Duration(0)
	allocs := testing.AllocsPerRun(200, func() {
		at++
		q.Push(at, fn)
		q.Push(at+1, fn)
		for i := 0; i < 2; i++ {
			if _, _, ok := q.Pop(); !ok {
				t.Fatal("queue unexpectedly empty")
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state push/pop allocated %v times, want 0", allocs)
	}
}
