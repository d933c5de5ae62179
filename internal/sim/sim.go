// Package sim provides the discrete-event simulation kernel shared by the
// ideal (Section 4) and fine-grained (Section 5) simulators.
//
// The kernel is deliberately single-threaded: wireless MAC behaviour depends
// on exact event ordering, and a sequential event loop with a deterministic
// tie-break is both faster and reproducible. All simulated time is
// time.Duration from the start of the run.
//
// Scheduling is fire-and-forget: an event cannot be cancelled, so a
// callback that may have become stale checks its own state when it fires.
// The kernel's queue (internal/eventq) keeps its heap array across events
// and across Reset, so once a run's pending set has reached its working
// size, scheduling and firing events allocates nothing — recurring events
// that reschedule a pre-bound callback included.
package sim

import (
	"errors"
	"sync/atomic"
	"time"

	"pbbf/internal/eventq"
)

// ErrStopped is returned by Run when Stop was called before the horizon.
var ErrStopped = errors.New("sim: stopped")

// totalFired counts events executed across every kernel in the process.
// Kernels flush their local counters when Run/RunUntilIdle returns, so the
// hot loop pays nothing; the benchmark runner reads deltas around runs.
var totalFired atomic.Uint64

// TotalFired returns the process-wide count of events executed by kernels
// whose Run/RunUntilIdle has returned. Intended for benchmark accounting.
func TotalFired() uint64 { return totalFired.Load() }

// Kernel is a discrete-event simulation executive. Create with NewKernel.
type Kernel struct {
	queue   eventq.Queue
	now     time.Duration
	stopped bool
	fired   uint64
	flushed uint64 // portion of fired already added to totalFired
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current simulation time.
func (k *Kernel) Now() time.Duration { return k.now }

// Reset returns the kernel to its initial state — clock at zero, no
// pending events — while keeping the event queue's pooled storage. The
// fired counter is flushed (not zeroed) first so TotalFired accounting
// stays monotonic across pooled runs. A reset kernel behaves exactly like
// a fresh NewKernel for scheduling and tie-break order.
func (k *Kernel) Reset() {
	k.flushFired()
	k.queue.Reset()
	k.now = 0
	k.stopped = false
}

// Fired returns the number of events executed so far (diagnostics).
func (k *Kernel) Fired() uint64 { return k.fired }

// Pending returns the number of scheduled events not yet executed.
func (k *Kernel) Pending() int { return k.queue.Len() }

// flushFired publishes events executed since the last flush to the
// process-wide counter.
func (k *Kernel) flushFired() {
	if d := k.fired - k.flushed; d > 0 {
		totalFired.Add(d)
		k.flushed = k.fired
	}
}

// Schedule runs fn after delay d (>= 0) of simulated time. A negative delay
// is clamped to zero so that "fire now" races cannot schedule into the past.
func (k *Kernel) Schedule(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.ScheduleAt(k.now+d, fn)
}

// ScheduleAt runs fn at absolute time at; times before Now are clamped.
func (k *Kernel) ScheduleAt(at time.Duration, fn func()) {
	if at < k.now {
		at = k.now
	}
	k.queue.Push(at, fn)
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the queue is empty or the
// clock would pass horizon. Events scheduled exactly at the horizon still
// execute. Returns ErrStopped if Stop was called, nil otherwise.
func (k *Kernel) Run(horizon time.Duration) error {
	defer k.flushFired()
	k.stopped = false
	for {
		if k.stopped {
			return ErrStopped
		}
		at, ok := k.queue.PeekAt()
		if !ok {
			// Drained: advance the clock to the horizon so that a
			// subsequent Run continues from a consistent point.
			if k.now < horizon {
				k.now = horizon
			}
			return nil
		}
		if at > horizon {
			k.now = horizon
			return nil
		}
		_, fn, _ := k.queue.Pop()
		k.now = at
		k.fired++
		if fn != nil {
			fn()
		}
	}
}

// RunUntilIdle executes every scheduled event regardless of time. Intended
// for simulations that terminate naturally (e.g. a single broadcast flood).
func (k *Kernel) RunUntilIdle() error {
	defer k.flushFired()
	k.stopped = false
	for {
		if k.stopped {
			return ErrStopped
		}
		at, fn, ok := k.queue.Pop()
		if !ok {
			return nil
		}
		k.now = at
		k.fired++
		if fn != nil {
			fn()
		}
	}
}
