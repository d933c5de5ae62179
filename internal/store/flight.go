package store

import (
	"sync"
	"sync/atomic"

	"pbbf/internal/scenario"
)

// Flight adds singleflight compute de-duplication on top of a Store: the
// first caller to miss on a key runs the computation and writes the result
// through, concurrent callers for the same key block and share the
// outcome. This is the seam the serving layer computes through — the store
// tiers only ever see completed results, so any Store composition works
// underneath without its own in-flight tracking.
type Flight struct {
	store Store

	mu       sync.Mutex
	inflight map[string]*call

	joins    atomic.Uint64
	computes atomic.Uint64
	active   atomic.Int64
}

// call is one in-flight computation; done closes when res/err are final.
type call struct {
	done chan struct{}
	res  scenario.Result
	err  error
}

// NewFlight wraps the store.
func NewFlight(s Store) *Flight {
	return &Flight{store: s, inflight: make(map[string]*call)}
}

// Store returns the wrapped store (for stats snapshots).
func (f *Flight) Store() Store { return f.store }

// Do returns the result stored under key, computing and storing it on a
// miss. cached reports whether the caller's result came without running
// compute here: a store hit, or a join onto another caller's computation
// that succeeded. The leader stores its result before publishing it, so a
// caller arriving after the flight ends hits the store. Compute errors are
// shared with joined callers but never stored — the next request retries.
//
// beforeWait, when non-nil, is called once, with no lock held, right
// before the caller blocks on a computation: before it runs compute as
// the leader, or before it waits on the leader as a joiner. A store hit
// never calls it. The serving layer flushes its stream there, so results
// already written never wait behind a simulation.
func (f *Flight) Do(key string, compute func() (scenario.Result, error), beforeWait func()) (res scenario.Result, cached bool, err error) {
	if res, ok, _ := f.store.Get(key); ok {
		return res, true, nil
	}
	f.mu.Lock()
	if c, ok := f.inflight[key]; ok {
		f.joins.Add(1)
		f.mu.Unlock()
		if beforeWait != nil {
			beforeWait()
		}
		<-c.done
		return c.res, c.err == nil, c.err
	}
	c := &call{done: make(chan struct{})}
	f.inflight[key] = c
	f.mu.Unlock()

	if beforeWait != nil {
		beforeWait()
	}
	f.computes.Add(1)
	f.active.Add(1)
	c.res, c.err = compute()
	f.active.Add(-1)
	if c.err == nil {
		// A store failure here must not fail the request — the result is in
		// hand; it surfaces through the store's error counters instead.
		f.store.Put(key, c.res) //nolint:errcheck
	}
	f.mu.Lock()
	delete(f.inflight, key)
	f.mu.Unlock()
	close(c.done)
	return c.res, false, c.err
}

// Joins counts callers that shared another caller's in-flight computation.
func (f *Flight) Joins() uint64 { return f.joins.Load() }

// Computes counts computations actually run (store misses that led).
func (f *Flight) Computes() uint64 { return f.computes.Load() }

// Active is the number of computations running right now — the in-flight
// points gauge of /metrics.
func (f *Flight) Active() int64 { return f.active.Load() }
