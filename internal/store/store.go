// Package store is the result-storage layer behind the serving API: a
// common contract for keeping computed point results addressable by their
// canonical scenario.PointKey, with interchangeable backends. Memory is a
// sharded LRU of completed results; Disk keeps one self-verifying record
// per key with atomic write-then-rename persistence and corrupt-record
// quarantine, so a restarted server serves byte-identical results without
// recomputing anything; Tiered composes them (memory in front of disk).
// Flight is the package's one singleflight: it de-duplicates concurrent
// computes of a key on top of any Store, so the backends only ever hold
// completed results. internal/server computes through the Store
// interface, so future shared backends (a store directory on shared
// storage, a remote result service) slot in without touching handlers.
package store

import (
	"pbbf/internal/scenario"
)

// Store is the storage contract for computed point results. Keys are
// canonical scenario.PointKey strings; because points are pure, a key
// fully determines its value, so implementations never need invalidation —
// only capacity management (memory) or durability bookkeeping (disk).
// Implementations must be safe for concurrent use.
type Store interface {
	// Get returns the result stored under key. The boolean reports whether
	// the key was present; err reports a backend failure (an I/O error, not
	// a miss — a corrupt record is quarantined and surfaces as a miss).
	Get(key string) (scenario.Result, bool, error)
	// Put stores a result under key. Storing the same key twice is
	// idempotent by construction: both writes carry the same pure value.
	Put(key string, res scenario.Result) error
	// Len returns the number of stored results.
	Len() int
	// Stats returns a point-in-time counter snapshot.
	Stats() Stats
	// Close releases the backend (flushes nothing: every Put is already
	// durable to the backend's guarantee when it returns).
	Close() error
}

// Stats is one backend's counter snapshot. Composite backends (Tiered)
// aggregate the top-level counters and carry each tier's own snapshot in
// Tiers, so /v1/stats and /metrics can report both the overall behavior
// and the per-tier breakdown.
type Stats struct {
	// Kind names the backend: "memory", "disk", or "tiered".
	Kind string `json:"kind"`
	// Hits and Misses count Get outcomes.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Puts counts stored results.
	Puts uint64 `json:"puts"`
	// Entries is the current stored-result count.
	Entries int `json:"entries"`
	// Evictions counts entries dropped by a capacity bound (memory tier).
	Evictions uint64 `json:"evictions,omitempty"`
	// Capacity and Shards describe the memory tier's LRU configuration.
	Capacity int `json:"capacity,omitempty"`
	Shards   int `json:"shards,omitempty"`
	// BytesWritten counts record bytes persisted (disk tier).
	BytesWritten uint64 `json:"bytes_written,omitempty"`
	// Quarantined counts corrupt records moved aside by Get (disk tier).
	Quarantined uint64 `json:"quarantined,omitempty"`
	// Errors counts backend failures (I/O errors on Get or Put).
	Errors uint64 `json:"errors,omitempty"`
	// Tiers holds the per-tier snapshots of a composite store, front first.
	Tiers []Stats `json:"tiers,omitempty"`
}
