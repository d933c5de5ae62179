// Package eventq implements the pending-event set of a discrete-event
// simulator: a flat 4-ary min-heap of timed callbacks with O(log n) push
// and pop.
//
// Each heap entry holds its ordering keys (time, insertion sequence) and
// its callback inline, so a sift moves whole entries within one array and
// never chases a pointer. Sifts carry the moving entry in a hole and write
// it once at its final position. The heap array is kept across Pop and
// Reset, so a simulation whose pending set has reached its working size
// schedules and fires events with no heap allocation. Events cannot be
// cancelled: the simulators never withdraw a scheduled event, they let its
// callback notice that it is no longer relevant.
//
// Two events with equal timestamps are ordered by insertion sequence.
// (time, sequence) is a total order, so the same schedule of calls always
// dequeues in the same order whatever the heap's shape, which makes
// simulation runs fully deterministic.
package eventq

import "time"

// arity is the heap's branching factor. A 4-ary heap is half as deep as a
// binary one, and a node's children share a cache line or two.
const arity = 4

// entry is one pending event: its ordering keys and its callback.
type entry struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before reports whether e fires ahead of o.
func (e *entry) before(o *entry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// Queue is a min-heap of events ordered by (time, insertion sequence).
// The zero value is ready to use. Queue is not safe for concurrent use;
// the simulation kernel is single-threaded by design.
type Queue struct {
	heap    []entry
	nextSeq uint64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Reset discards every pending event while keeping the heap array for
// reuse. The insertion sequence restarts at zero, so a reused queue orders
// equal-timestamp events exactly like a fresh one — the property the
// simulation pools rely on for byte-identical reruns.
func (q *Queue) Reset() {
	clear(q.heap) // drop the callbacks so they can be collected
	q.heap = q.heap[:0]
	q.nextSeq = 0
}

// Push schedules fn at time at.
func (q *Queue) Push(at time.Duration, fn func()) {
	e := entry{at: at, seq: q.nextSeq, fn: fn}
	q.nextSeq++
	q.heap = append(q.heap, e)
	h := q.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / arity
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// Pop removes the earliest event and returns its time and callback;
// ok is false if the queue is empty.
func (q *Queue) Pop() (at time.Duration, fn func(), ok bool) {
	n := len(q.heap) - 1
	if n < 0 {
		return 0, nil, false
	}
	h := q.heap
	head, last := h[0], h[n]
	h[n] = entry{} // drop the callback reference from the spare capacity
	h = h[:n]
	q.heap = h
	if n > 0 {
		i := 0
		for {
			c := arity*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < c+arity && j < n; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return head.at, head.fn, true
}

// PeekAt returns the earliest pending event time; ok is false if empty.
func (q *Queue) PeekAt() (at time.Duration, ok bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}
