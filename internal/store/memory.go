package store

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"pbbf/internal/scenario"
)

// Memory is the in-memory Store backend: completed results in a sharded
// LRU. The key space is split across independently locked shards by
// shardHash, and each shard bounds its entry count with LRU eviction.
// It is the fast tier of a Tiered store and the whole store of a server
// running without a -store directory. Memory holds only completed
// results; concurrent computes of one key are de-duplicated by Flight.
type Memory struct {
	shards []memShard
	puts   atomic.Uint64
}

// memEntry is one stored result; prev/next thread its shard's LRU list
// (most recent at head).
type memEntry struct {
	key        string
	res        scenario.Result
	prev, next *memEntry
}

type memShard struct {
	mu      sync.Mutex
	entries map[string]*memEntry
	// head is the most recently used entry, tail the least.
	head, tail *memEntry
	capacity   int

	hits, misses, evictions uint64
}

// NewMemory builds a memory store with the given shard count and total
// entry capacity, split evenly across shards (the first capacity%shards
// shards hold one extra entry). The capacity must cover at least one
// entry per shard.
func NewMemory(shards, capacity int) (*Memory, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cache: shard count %d must be positive", shards)
	}
	if capacity < shards {
		return nil, fmt.Errorf("cache: capacity %d below shard count %d", capacity, shards)
	}
	m := &Memory{shards: make([]memShard, shards)}
	for i := range m.shards {
		per := capacity / shards
		if i < capacity%shards {
			per++
		}
		m.shards[i] = memShard{entries: make(map[string]*memEntry), capacity: per}
	}
	return m, nil
}

func (m *Memory) shardFor(key string) *memShard {
	return &m.shards[shardHash(key)%uint64(len(m.shards))]
}

// Get returns the result stored under key, marking it most recently used.
func (m *Memory) Get(key string) (scenario.Result, bool, error) {
	sh := m.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok {
		sh.hits++
		sh.moveToFront(e)
		return e.res, true, nil
	}
	sh.misses++
	return scenario.Result{}, false, nil
}

// Put stores the result, LRU-evicting as needed. An existing entry is
// overwritten in place.
func (m *Memory) Put(key string, res scenario.Result) error {
	sh := m.shardFor(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		e.res = res
		sh.moveToFront(e)
	} else {
		e := &memEntry{key: key, res: res}
		sh.entries[key] = e
		sh.pushFront(e)
		sh.evict()
	}
	sh.mu.Unlock()
	m.puts.Add(1)
	return nil
}

// Len returns the stored entry count.
func (m *Memory) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats aggregates the counters across shards.
func (m *Memory) Stats() Stats {
	s := Stats{Kind: "memory", Puts: m.puts.Load(), Shards: len(m.shards)}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		s.Entries += len(sh.entries)
		s.Capacity += sh.capacity
		sh.mu.Unlock()
	}
	return s
}

// Close is a no-op: memory holds no external resources.
func (m *Memory) Close() error { return nil }

// evict drops least-recently-used entries until the shard is within
// capacity.
func (sh *memShard) evict() {
	for len(sh.entries) > sh.capacity {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		sh.evictions++
	}
}

func (sh *memShard) pushFront(e *memEntry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *memShard) unlink(e *memEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *memShard) moveToFront(e *memEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// shardHash routes a key to its shard. It reads the key eight bytes at a
// time, since a PointKey is a couple of hundred bytes and every Get and
// Put routes one. The hash is fixed, unlike maphash's per-process seed,
// so every process spreads (and evicts) the same keys the same way.
func shardHash(s string) uint64 {
	const (
		k1 = 0x9e3779b97f4a7c15
		k2 = 0xc2b2ae3d27d4eb4f
	)
	h := uint64(len(s)) * k1
	for ; len(s) >= 8; s = s[8:] {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = bits.RotateLeft64(h^(w*k2), 31) * k1
	}
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * k1
	}
	// Fold the high bits down: the shard index is h modulo a small count.
	h ^= h >> 32
	h *= k2
	return h ^ h>>29
}
