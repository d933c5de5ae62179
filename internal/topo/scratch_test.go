package topo

import (
	"fmt"
	"testing"

	"pbbf/internal/raceflag"
	"pbbf/internal/rng"
)

// sameTopology fails unless a and b have identical node count, positions,
// and neighbor lists.
func sameTopology(t *testing.T, a, b Topology) {
	t.Helper()
	if a.N() != b.N() {
		t.Fatalf("N: %d vs %d", a.N(), b.N())
	}
	for id := 0; id < a.N(); id++ {
		if a.Position(NodeID(id)) != b.Position(NodeID(id)) {
			t.Fatalf("node %d position %v vs %v", id, a.Position(NodeID(id)), b.Position(NodeID(id)))
		}
		an, bn := a.Neighbors(NodeID(id)), b.Neighbors(NodeID(id))
		if len(an) != len(bn) {
			t.Fatalf("node %d degree %d vs %d", id, len(an), len(bn))
		}
		for k := range an {
			if an[k] != bn[k] {
				t.Fatalf("node %d neighbor[%d] %d vs %d", id, k, an[k], bn[k])
			}
		}
	}
}

// TestScratchRandomDiskMatchesFresh: building through a reused Scratch must
// perform the same draws and yield the same topology as the package-level
// constructor on a fresh one — the scratch's buffers are dirty from the
// prior (different-sized) build. TestPinnedTopologies pins the digests.
func TestScratchRandomDiskMatchesFresh(t *testing.T) {
	sc := NewScratch()
	for i, cfg := range []DiskConfig{
		{N: 120, Range: 30, Area: AreaForDensity(120, 30, 10)},
		{N: 60, Range: 30, Area: AreaForDensity(60, 30, 12)}, // shrink: reuse dirty buffers
		{N: 200, Range: 30, Area: AreaForDensity(200, 30, 8)},
	} {
		seed := uint64(1000 + i)
		fresh, err := NewConnectedRandomDisk(cfg, rng.New(seed), 500)
		if err != nil {
			t.Fatalf("fresh build %d: %v", i, err)
		}
		reused, err := sc.ConnectedRandomDisk(cfg, rng.New(seed), 500)
		if err != nil {
			t.Fatalf("reused build %d: %v", i, err)
		}
		sameTopology(t, fresh, reused)
	}
}

func TestScratchGaussianClustersMatchesFresh(t *testing.T) {
	sc := NewScratch()
	cfg := ClusterConfig{N: 150, Range: 30, Area: AreaForDensity(150, 30, 14), Clusters: 4, Sigma: 45}
	gen := func(r *rng.Source) (*Field, error) { return NewGaussianClusters(cfg, r) }
	scGen := func(r *rng.Source) (*Field, error) { return sc.GaussianClusters(cfg, r) }
	for _, seed := range []uint64{7, 8} {
		fresh, err := NewConnectedField(gen, rng.New(seed), 500)
		if err != nil {
			t.Fatalf("fresh: %v", err)
		}
		reused, err := sc.ConnectedField(scGen, rng.New(seed), 500)
		if err != nil {
			t.Fatalf("reused: %v", err)
		}
		sameTopology(t, fresh, reused)
	}
}

func TestScratchCorridorMatchesFresh(t *testing.T) {
	sc := NewScratch()
	cfg := CorridorConfig{N: 150, Range: 30, Area: AreaForDensity(150, 30, 16), Aspect: 8}
	gen := func(r *rng.Source) (*Field, error) { return NewCorridor(cfg, r) }
	scGen := func(r *rng.Source) (*Field, error) { return sc.Corridor(cfg, r) }
	for _, seed := range []uint64{21, 22} {
		fresh, err := NewConnectedField(gen, rng.New(seed), 500)
		if err != nil {
			t.Fatalf("fresh: %v", err)
		}
		reused, err := sc.ConnectedField(scGen, rng.New(seed), 500)
		if err != nil {
			t.Fatalf("reused: %v", err)
		}
		sameTopology(t, fresh, reused)
	}
}

// TestScratchHopDistancesMatchesFresh checks the scratch BFS against the
// allocating one on an irregular graph, twice through the same buffers.
func TestScratchHopDistancesMatchesFresh(t *testing.T) {
	cfg := DiskConfig{N: 150, Range: 30, Area: AreaForDensity(150, 30, 10)}
	d, err := NewConnectedRandomDisk(cfg, rng.New(99), 500)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for _, src := range []NodeID{0, 17, 149} {
		want := HopDistances(d, src)
		got := sc.HopDistances(d, src)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("src %d: dist[%d] = %d, want %d", src, i, got[i], want[i])
			}
		}
	}
	if !sc.Connected(d) {
		t.Fatal("scratch Connected reports false on a connected graph")
	}
}

// TestScratchSteadyStateAllocFree: after a warm-up build, rebuilding the
// same-shaped topology through the scratch must not allocate.
func TestScratchSteadyStateAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless under -race")
	}
	cfg := DiskConfig{N: 150, Range: 30, Area: AreaForDensity(150, 30, 10)}
	sc := NewScratch()
	r := rng.New(5)
	if _, err := sc.ConnectedRandomDisk(cfg, r, 500); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sc.ConnectedRandomDisk(cfg, r, 500); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state ConnectedRandomDisk allocates %.0f times per build, want 0", allocs)
	}
}

// BenchmarkConnectedRandomDisk times one connected placement on a reused
// Scratch, rejected tries included, at the bench scale's field size and
// the densities the Section 5 sweeps use.
func BenchmarkConnectedRandomDisk(b *testing.B) {
	for _, delta := range []float64{8, 10, 12, 16} {
		b.Run(fmt.Sprintf("delta=%v", delta), func(b *testing.B) {
			cfg := DiskConfig{N: 100, Range: 30, Area: AreaForDensity(100, 30, delta)}
			sc := NewScratch()
			r := rng.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sc.ConnectedRandomDisk(cfg, r, 500); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
