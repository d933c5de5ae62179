package store

import (
	"sync"
	"testing"

	"pbbf/internal/scenario"
)

func newTestTiered(t *testing.T) (Store, *Memory, *Disk) {
	t.Helper()
	mem, err := NewMemory(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return Tiered(mem, disk), mem, disk
}

func TestTieredWriteThroughAndPromotion(t *testing.T) {
	ts, mem, disk := newTestTiered(t)
	key := testKey(t, "fig8", 1, 0.5)

	// Put writes through to both tiers.
	if err := ts.Put(key, scenario.Result{Y: 7}); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 1 || disk.Len() != 1 {
		t.Fatalf("tiers after put: mem=%d disk=%d", mem.Len(), disk.Len())
	}

	// A fresh memory tier over the same disk (the restart shape): the
	// first Get is a disk hit that promotes, the second a memory hit.
	mem2, err := NewMemory(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := Tiered(mem2, disk)
	got, ok, err := ts2.Get(key)
	if !ok || err != nil || got.Y != 7 {
		t.Fatalf("cold get: %+v ok=%v err=%v", got, ok, err)
	}
	if mem2.Len() != 1 {
		t.Fatal("disk hit not promoted into the memory tier")
	}
	diskHits := disk.Stats().Hits
	if _, ok, _ := ts2.Get(key); !ok {
		t.Fatal("warm get missed")
	}
	if disk.Stats().Hits != diskHits {
		t.Fatal("warm get fell through to disk")
	}
}

func TestTieredMissAndStats(t *testing.T) {
	ts, _, _ := newTestTiered(t)
	if _, ok, err := ts.Get(testKey(t, "fig8", 9, 0.5)); ok || err != nil {
		t.Fatalf("empty tiered store: ok=%v err=%v", ok, err)
	}
	st := ts.Stats()
	if st.Kind != "tiered" || st.Misses != 1 || len(st.Tiers) != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Tiers[0].Kind != "memory" || st.Tiers[1].Kind != "disk" {
		t.Fatalf("tier order %+v", st.Tiers)
	}
}

func TestTieredSingleCollapses(t *testing.T) {
	mem, err := NewMemory(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s := Tiered(mem); s != Store(mem) {
		t.Fatal("single-tier composition did not collapse")
	}
}

func TestFlightStoreHitAndCompute(t *testing.T) {
	ts, _, _ := newTestTiered(t)
	f := NewFlight(ts)
	key := testKey(t, "fig8", 1, 0.5)
	computes := 0
	compute := func() (scenario.Result, error) {
		computes++
		return scenario.Result{Y: 5}, nil
	}
	waits := 0
	wait := func() {
		if computes != 0 {
			t.Error("beforeWait called after compute started")
		}
		waits++
	}
	res, cached, err := f.Do(key, compute, wait)
	if err != nil || cached || res.Y != 5 || computes != 1 || waits != 1 {
		t.Fatalf("first do: %+v cached=%v err=%v computes=%d waits=%d", res, cached, err, computes, waits)
	}
	res, cached, err = f.Do(key, compute, wait)
	if err != nil || !cached || res.Y != 5 || computes != 1 {
		t.Fatalf("second do recomputed: %+v cached=%v err=%v computes=%d", res, cached, err, computes)
	}
	if waits != 1 {
		t.Fatalf("a store hit called beforeWait (%d calls)", waits)
	}
	if f.Computes() != 1 {
		t.Fatalf("computes counter %d", f.Computes())
	}
}

// TestFlightSingleflight: concurrent callers for one key run compute once
// and all share the value; late callers hit the store.
func TestFlightSingleflight(t *testing.T) {
	ts, _, _ := newTestTiered(t)
	f := NewFlight(ts)
	key := testKey(t, "fig8", 2, 0.5)

	started := make(chan struct{})
	release := make(chan struct{})
	var computes int
	go f.Do(key, func() (scenario.Result, error) { //nolint:errcheck
		computes++
		close(started)
		<-release
		return scenario.Result{Y: 9}, nil
	}, nil)
	<-started

	const followers = 8
	var wg sync.WaitGroup
	results := make([]scenario.Result, followers)
	cachedFlags := make([]bool, followers)
	waits := make([]int, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, cached, err := f.Do(key, func() (scenario.Result, error) {
				t.Error("follower computed")
				return scenario.Result{}, nil
			}, func() { waits[i]++ })
			if err != nil {
				t.Error(err)
			}
			results[i], cachedFlags[i] = res, cached
		}(i)
	}
	// Give followers time to join, then let the leader finish.
	for f.Joins() < followers {
		if f.Active() != 1 {
			t.Fatalf("active %d", f.Active())
		}
	}
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes %d", computes)
	}
	for i := range results {
		if results[i].Y != 9 || !cachedFlags[i] || waits[i] != 1 {
			t.Fatalf("follower %d: %+v cached=%v waits=%d", i, results[i], cachedFlags[i], waits[i])
		}
	}
	if f.Joins() != followers {
		t.Fatalf("joins %d", f.Joins())
	}
	if f.Active() != 0 {
		t.Fatalf("active after drain %d", f.Active())
	}
}

func TestFlightErrorNotStored(t *testing.T) {
	ts, _, _ := newTestTiered(t)
	f := NewFlight(ts)
	key := testKey(t, "fig8", 3, 0.5)
	boom := func() (scenario.Result, error) {
		return scenario.Result{}, errTest
	}
	if _, cached, err := f.Do(key, boom, nil); err != errTest || cached {
		t.Fatalf("error do: cached=%v err=%v", cached, err)
	}
	if ts.Len() != 0 {
		t.Fatal("failed computation was stored")
	}
	// The next request retries and can succeed.
	res, cached, err := f.Do(key, func() (scenario.Result, error) {
		return scenario.Result{Y: 1}, nil
	}, nil)
	if err != nil || cached || res.Y != 1 {
		t.Fatalf("retry: %+v cached=%v err=%v", res, cached, err)
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "simulated compute failure" }
