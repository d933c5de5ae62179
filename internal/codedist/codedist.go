// Package codedist implements the paper's example application (Section
// 5.1): code distribution over broadcast. One node is the update source;
// new updates are generated deterministically at rate λ, and every
// broadcast packet carries the k most recent updates, so a node can miss
// k−1 consecutive packets and still learn every update.
package codedist

import (
	"fmt"
	"time"

	"pbbf/internal/core"
)

// Update is one code update generated at the source.
type Update struct {
	// Seq is the source-assigned sequence number, starting at 0.
	Seq int
	// GeneratedAt is the simulation time the update was created.
	GeneratedAt time.Duration
}

// Payload is the application content of one broadcast packet: the k most
// recent updates at generation time.
type Payload struct {
	Updates []Update
}

// Source generates updates and builds packet payloads. The zero value
// must be Reset with a batch size before use.
type Source struct {
	k      int
	recent []Update
	next   int
}

// Reset (re)initializes the source in place for a new run batching the k
// most recent updates per packet (Table 2 experiments use k=1), keeping
// the recent-updates buffer.
func (s *Source) Reset(k int) error {
	if k <= 0 {
		return fmt.Errorf("codedist: k %d must be positive", k)
	}
	s.k = k
	s.recent = s.recent[:0]
	s.next = 0
	return nil
}

// Generate creates the next update at time now and returns the payload to
// broadcast (a copy; callers cannot alias internal state).
func (s *Source) Generate(now time.Duration) Payload {
	u := Update{Seq: s.next, GeneratedAt: now}
	s.next++
	s.recent = append(s.recent, u)
	if len(s.recent) > s.k {
		s.recent = s.recent[len(s.recent)-s.k:]
	}
	out := make([]Update, len(s.recent))
	copy(out, s.recent)
	return Payload{Updates: out}
}

// Generated returns the number of updates created so far.
func (s *Source) Generated() int { return s.next }

// Tracker records, per receiving node, when each update was first learned.
// Sequence numbers are dense from zero, so first-sight state lives in a
// core.SeqSet and a latency slice indexed by seq: observing a payload on
// the reception hot path is an array test, not a map probe. The zero value
// is an empty tracker.
type Tracker struct {
	seen     core.SeqSet
	latency  []time.Duration
	received int
}

// Reset clears the tracker for reuse across runs, keeping its capacity so
// a pooled tracker records a whole run without allocating.
func (t *Tracker) Reset() {
	t.seen.Clear()
	t.latency = t.latency[:0]
	t.received = 0
}

// Observe processes a received payload at time now, recording first-sight
// latency for updates not seen before. A negative seq panics through the
// set's dense-seq guard.
func (t *Tracker) Observe(p Payload, now time.Duration) {
	for _, u := range p.Updates {
		if !t.seen.Add(uint64(u.Seq)) {
			continue
		}
		// Grow element-wise so a Reset tracker reuses its capacity.
		for len(t.latency) <= u.Seq {
			t.latency = append(t.latency, 0)
		}
		t.latency[u.Seq] = now - u.GeneratedAt
		t.received++
	}
}

// Received returns how many distinct updates the node has learned.
func (t *Tracker) Received() int { return t.received }

// Latency returns the first-sight latency of update seq.
func (t *Tracker) Latency(seq int) (time.Duration, bool) {
	if seq < 0 || !t.seen.Has(uint64(seq)) {
		return 0, false
	}
	return t.latency[seq], true
}
