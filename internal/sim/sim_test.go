package sim

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"pbbf/internal/rng"
)

func TestRunOrdersEvents(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(3*time.Second, func() { order = append(order, 3) })
	k.Schedule(1*time.Second, func() { order = append(order, 1) })
	k.Schedule(2*time.Second, func() { order = append(order, 2) })
	if err := k.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if k.Now() != 10*time.Second {
		t.Fatalf("clock = %v after drain, want horizon", k.Now())
	}
}

func TestHorizonInclusive(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(5*time.Second, func() { fired = true })
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestHorizonExclusiveBeyond(t *testing.T) {
	k := NewKernel()
	fired := false
	k.Schedule(5*time.Second+time.Nanosecond, func() { fired = true })
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("event after horizon fired")
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	// A second Run picks it up.
	if err := k.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("event did not fire on resumed run")
	}
}

func TestNowDuringEvent(t *testing.T) {
	k := NewKernel()
	var at time.Duration
	k.Schedule(1500*time.Millisecond, func() { at = k.Now() })
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if at != 1500*time.Millisecond {
		t.Fatalf("Now inside event = %v", at)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var hits []time.Duration
	k.Schedule(time.Second, func() {
		hits = append(hits, k.Now())
		k.Schedule(time.Second, func() {
			hits = append(hits, k.Now())
		})
	})
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != time.Second || hits[1] != 2*time.Second {
		t.Fatalf("hits = %v", hits)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := NewKernel()
	k.Schedule(time.Second, func() {
		k.Schedule(-5*time.Second, func() {
			if k.Now() != time.Second {
				t.Fatalf("clamped event fired at %v", k.Now())
			}
		})
	})
	if err := k.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		k.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if i == 3 {
				k.Stop()
			}
		})
	}
	err := k.Run(time.Minute)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestRunUntilIdle(t *testing.T) {
	k := NewKernel()
	total := 0
	var spawn func(depth int)
	spawn = func(depth int) {
		total++
		if depth < 5 {
			k.Schedule(time.Hour, func() { spawn(depth + 1) })
		}
	}
	k.Schedule(0, func() { spawn(0) })
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if total != 6 {
		t.Fatalf("total = %d, want 6", total)
	}
	if k.Now() != 5*time.Hour {
		t.Fatalf("clock = %v", k.Now())
	}
}

// every runs fn every period from Now+period for as long as fn returns
// true, the way the simulators build recurring events: one pre-bound
// closure that reschedules itself.
func every(k *Kernel, period time.Duration, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			k.Schedule(period, tick)
		}
	}
	k.Schedule(period, tick)
}

// TestResumeAfterStopReusesPool verifies that events surviving a Stop keep
// firing on the next Run and that a recurring event can be switched off
// while the kernel is stopped — the kernel must treat Stop as a pause, not
// a drain.
func TestResumeAfterStopReusesPool(t *testing.T) {
	k := NewKernel()
	ticks := 0
	off := false
	every(k, time.Second, func() bool {
		if off {
			return false
		}
		ticks++
		if ticks == 3 {
			k.Stop()
		}
		return true
	})
	if err := k.Run(time.Minute); !errors.Is(err, ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if ticks != 3 {
		t.Fatalf("ticks = %d before stop, want 3", ticks)
	}
	// Resume: the rescheduled tick must still be live.
	if err := k.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d after resume, want 5", ticks)
	}
	// Switch off between runs: no further ticks on the next resume.
	off = true
	if err := k.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("recurring event fired %d times after switch-off, want 5", ticks)
	}
	if k.Pending() != 0 {
		t.Fatalf("pending = %d after the recurring event stopped, want 0", k.Pending())
	}
}

// TestRecurringEventSteadyStateAllocFree is the pooled-kernel headline: a
// recurring event firing forever must not allocate per firing.
func TestRecurringEventSteadyStateAllocFree(t *testing.T) {
	k := NewKernel()
	n := 0
	every(k, time.Second, func() bool { n++; return true })
	if err := k.Run(10 * time.Second); err != nil { // warm the heap array
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := k.Run(k.Now() + 10*time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("recurring event allocates %.1f times per 10 firings", allocs)
	}
	if n == 0 {
		t.Fatal("recurring event never fired")
	}
}

// TestResetMatchesFreshKernel checks that a reset kernel replays a
// schedule with equal timestamps in the same order as a fresh one, with
// its clock back at zero and nothing pending.
func TestResetMatchesFreshKernel(t *testing.T) {
	replay := func(k *Kernel) []int {
		var order []int
		for i := 0; i < 8; i++ {
			i := i
			k.Schedule(time.Duration(i%2)*time.Second, func() { order = append(order, i) })
		}
		if err := k.RunUntilIdle(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	k := NewKernel()
	want := replay(k)
	k.Schedule(time.Hour, func() { t.Fatal("event discarded by Reset fired") })
	k.Reset()
	if k.Now() != 0 || k.Pending() != 0 {
		t.Fatalf("after Reset: now = %v, pending = %d", k.Now(), k.Pending())
	}
	if got := replay(k); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset kernel order %v, fresh kernel order %v", got, want)
	}
}

// Property: for any batch of scheduled delays, Run fires them in
// non-decreasing time order and the clock matches each event's time.
func TestPropertyMonotonicClock(t *testing.T) {
	check := func(seed uint64, rawN uint8) bool {
		r := rng.New(seed)
		n := int(rawN)%100 + 1
		k := NewKernel()
		var last time.Duration = -1
		ok := true
		for i := 0; i < n; i++ {
			k.Schedule(time.Duration(r.Intn(1000))*time.Millisecond, func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
			})
		}
		if err := k.RunUntilIdle(); err != nil {
			return false
		}
		return ok && k.Fired() == uint64(n)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	k := NewKernel()
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(time.Duration(r.Intn(100))*time.Millisecond, func() {})
		if k.Pending() > 4096 {
			_ = k.Run(k.Now() + 50*time.Millisecond)
		}
	}
}
