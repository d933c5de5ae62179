package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"pbbf/internal/scenario"
)

func mustMemory(t *testing.T, shards, capacity int) *Memory {
	t.Helper()
	m, err := NewMemory(shards, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMemoryNewValidates(t *testing.T) {
	for _, tc := range []struct {
		shards, capacity int
		want             string
	}{
		{0, 10, "cache: shard count 0 must be positive"},
		{-1, 10, "cache: shard count -1 must be positive"},
		{4, 3, "cache: capacity 3 below shard count 4"},
	} {
		_, err := NewMemory(tc.shards, tc.capacity)
		if err == nil || err.Error() != tc.want {
			t.Errorf("NewMemory(%d, %d) = %v, want %q", tc.shards, tc.capacity, err, tc.want)
		}
	}
}

// TestMemoryGetPut: Put publishes immediately, an overwrite replaces the
// value in place, Get feeds the hit/miss counters and Put the put counter,
// and Put respects the LRU bound.
func TestMemoryGetPut(t *testing.T) {
	m := mustMemory(t, 2, 4)
	if _, ok, err := m.Get("a"); ok || err != nil {
		t.Fatalf("empty get: ok=%v err=%v", ok, err)
	}
	m.Put("a", scenario.Result{Y: 1})
	if res, ok, _ := m.Get("a"); !ok || res.Y != 1 {
		t.Fatalf("get a: %+v ok=%v", res, ok)
	}
	m.Put("a", scenario.Result{Y: 2})
	if res, ok, _ := m.Get("a"); !ok || res.Y != 2 || m.Len() != 1 {
		t.Fatalf("after overwrite: %+v ok=%v len=%d", res, ok, m.Len())
	}
	st := m.Stats()
	want := Stats{Kind: "memory", Hits: 2, Misses: 1, Puts: 2, Entries: 1, Capacity: 4, Shards: 2}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	for i := 0; i < 20; i++ {
		m.Put(fmt.Sprintf("k%d", i), scenario.Result{Y: float64(i)})
	}
	if m.Len() > 4 {
		t.Fatalf("put overflowed the LRU bound: %d entries", m.Len())
	}
	// 21 distinct keys went in; every one not resident was evicted.
	if st := m.Stats(); st.Evictions != 21-uint64(st.Entries) {
		t.Fatalf("evictions %d with %d of 21 keys resident", st.Evictions, st.Entries)
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	// One shard isolates the LRU order from hashing.
	m := mustMemory(t, 1, 3)
	m.Put("a", scenario.Result{Y: 1})
	m.Put("b", scenario.Result{Y: 2})
	m.Put("c", scenario.Result{Y: 3})
	m.Get("a")                        // touch a: LRU order is now b, c, a
	m.Put("d", scenario.Result{Y: 4}) // evicts b

	if st := m.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok, _ := m.Get("b"); ok {
		t.Fatal("LRU victim b still stored")
	}
	m.Put("b", scenario.Result{Y: 2}) // evicts c, the new LRU
	if _, ok, _ := m.Get("c"); ok {
		t.Fatal("LRU victim c still stored")
	}
	for _, k := range []string{"a", "d", "b"} {
		if _, ok, _ := m.Get(k); !ok {
			t.Fatalf("recently used %q was evicted", k)
		}
	}
	if st := m.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

func TestMemoryShardDistribution(t *testing.T) {
	const shards = 8
	m := mustMemory(t, shards, 8192)
	counts := make([]int, shards)
	const keys = 4096
	for i := 0; i < keys; i++ {
		counts[shardHash(fmt.Sprintf("fig%d|scale|x=%d", i%20, i))%shards]++
	}
	// The hash over realistic keys should spread well; allow generous slack
	// around the ideal keys/shards to keep the test robust.
	for i, n := range counts {
		if n < keys/shards/2 || n > keys/shards*2 {
			t.Fatalf("shard %d holds %d of %d keys (counts %v)", i, n, keys, counts)
		}
	}
	// Real PointKeys share a couple of hundred bytes of scale segment and
	// differ in the last few words: fig17's points over 24 seeds.
	clear(counts)
	realKeys := 0
	for seed := uint64(1); seed <= 24; seed++ {
		s := scenario.Quick()
		s.Seed = seed
		k := scenario.NewKeyer(s)
		for _, p := range []float64{0, 0.05, 0.25, 0.5} {
			for _, delta := range []float64{6, 10, 14} {
				pt := scenario.Point{Series: "s", X: delta, Params: map[string]float64{"delta": delta, "p": p, "q": 0.25}}
				counts[shardHash(k.Key("fig17", pt))%shards]++
				realKeys++
			}
		}
	}
	for i, n := range counts {
		if n < realKeys/shards/2 || n > realKeys/shards*2 {
			t.Fatalf("shard %d holds %d of %d PointKeys (counts %v)", i, n, realKeys, counts)
		}
	}
	// A key lands on the shard its hash names.
	m.Put("fig8|quick|x=1", scenario.Result{})
	sh := &m.shards[shardHash("fig8|quick|x=1")%shards]
	if _, ok := sh.entries["fig8|quick|x=1"]; !ok {
		t.Fatal("key stored outside its hash shard")
	}
	if got := m.Stats().Capacity; got != 8192 {
		t.Fatalf("capacity = %d, want 8192", got)
	}
}

func TestMemoryCapacitySplitCoversUnevenDivision(t *testing.T) {
	m := mustMemory(t, 3, 10)
	if got := m.Stats().Capacity; got != 10 {
		t.Fatalf("capacity = %d, want 10", got)
	}
	for i, want := range []int{4, 3, 3} {
		if got := m.shards[i].capacity; got != want {
			t.Fatalf("shard %d capacity = %d, want %d", i, got, want)
		}
	}
}

func TestMemoryConcurrentMixedKeys(t *testing.T) {
	m := mustMemory(t, 4, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%50)
				if res, ok, _ := m.Get(k); ok && res.Y != float64(i%50) {
					t.Errorf("k=%s holds %v", k, res.Y)
				}
				m.Put(k, scenario.Result{Y: float64(i % 50)})
			}
		}()
	}
	wg.Wait()
	if n := m.Len(); n > 32 {
		t.Fatalf("memory tier exceeded capacity: %d entries", n)
	}
	st := m.Stats()
	if st.Hits+st.Misses != 8*200 || st.Puts != 8*200 {
		t.Fatalf("counters lost updates: %+v", st)
	}
}
