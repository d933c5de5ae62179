package topo

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pbbf/internal/rng"
)

// digest hashes a topology's position bits and adjacency lists, in node and
// neighbor order, alongside its node and edge counts.
func digest(t Topology) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for id := 0; id < t.N(); id++ {
		p := t.Position(NodeID(id))
		put(math.Float64bits(p.X))
		put(math.Float64bits(p.Y))
		nbrs := t.Neighbors(NodeID(id))
		put(uint64(len(nbrs)))
		for _, nb := range nbrs {
			put(uint64(nb))
		}
	}
	return fmt.Sprintf("n=%d e=%d %016x", t.N(), EdgeCount(t), h.Sum64())
}

// pinnedBuild builds one topology either on a fresh builder (sc nil, the
// package-level constructors) or on a shared, reused Scratch.
type pinnedBuild struct {
	name  string
	build func(sc *Scratch) (Topology, error)
}

func pinnedBuilds() []pinnedBuild {
	disk := DiskConfig{N: 120, Range: 30, Area: AreaForDensity(120, 30, 10)}
	sparse := DiskConfig{N: 60, Range: 30, Area: AreaForDensity(60, 30, 6)}
	clusters := ClusterConfig{N: 150, Range: 30, Area: AreaForDensity(150, 30, 14), Clusters: 4, Sigma: 45}
	corridor := CorridorConfig{N: 150, Range: 30, Area: AreaForDensity(150, 30, 16), Aspect: 8}
	return []pinnedBuild{
		{"connected disk", func(sc *Scratch) (Topology, error) {
			if sc == nil {
				return NewConnectedRandomDisk(disk, rng.New(101), 500)
			}
			return sc.ConnectedRandomDisk(disk, rng.New(101), 500)
		}},
		{"sparse disk", func(sc *Scratch) (Topology, error) {
			if sc == nil {
				return NewRandomDisk(sparse, rng.New(102))
			}
			return sc.RandomDisk(sparse, rng.New(102))
		}},
		{"clusters", func(sc *Scratch) (Topology, error) {
			if sc == nil {
				gen := func(r *rng.Source) (*Field, error) { return NewGaussianClusters(clusters, r) }
				return NewConnectedField(gen, rng.New(103), 500)
			}
			gen := func(r *rng.Source) (*Field, error) { return sc.GaussianClusters(clusters, r) }
			return sc.ConnectedField(gen, rng.New(103), 500)
		}},
		{"corridor", func(sc *Scratch) (Topology, error) {
			if sc == nil {
				gen := func(r *rng.Source) (*Field, error) { return NewCorridor(corridor, r) }
				return NewConnectedField(gen, rng.New(104), 500)
			}
			gen := func(r *rng.Source) (*Field, error) { return sc.Corridor(corridor, r) }
			return sc.ConnectedField(gen, rng.New(104), 500)
		}},
	}
}

// TestPinnedTopologies pins digests recorded from the package-level
// builders when each still had its own construction body, separate from
// the Scratch one. Every build must match on a fresh builder and on one
// Scratch reused, dirty, across all of them.
func TestPinnedTopologies(t *testing.T) {
	want := []string{
		"n=120 e=472 e76b22c9291cee72",
		"n=60 e=181 0a7b393c82fb83d4",
		"n=150 e=1307 ad097a4227be54c1",
		"n=150 e=958 80504df93b2d80c2",
	}
	sc := NewScratch()
	for i, b := range pinnedBuilds() {
		for _, shared := range []*Scratch{nil, sc} {
			topo, err := b.build(shared)
			if err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			if got := digest(topo); got != want[i] {
				t.Errorf("%s (reused scratch %v): got %s, want %s", b.name, shared != nil, got, want[i])
			}
		}
	}
}

// TestPinnedRejectedTries pins two retry loops that reject several
// placements before keeping one: a Δ=8 Gaussian-clustered field at the
// quick scale's 30 nodes and a Δ=8 30-node disk. Values were recorded when
// every try built sorted lists. The kept topology's digest shows the same
// placement is kept; the source's next draw shows every rejected try
// consumed the same stream, on a fresh builder and on a reused Scratch.
func TestPinnedRejectedTries(t *testing.T) {
	disk := DiskConfig{N: 30, Range: 30, Area: AreaForDensity(30, 30, 8)}
	clusters := ClusterConfig{N: 30, Range: 30, Area: AreaForDensity(30, 30, 8), Clusters: 4, Sigma: 15}
	cases := []struct {
		name       string
		seed       uint64
		build      func(sc *Scratch, r *rng.Source, tries *int) (Topology, error)
		wantTries  int
		wantDigest string
		wantNext   uint64
	}{
		{"clusters", 60, func(sc *Scratch, r *rng.Source, tries *int) (Topology, error) {
			gen := func(r *rng.Source) (*Field, error) { *tries++; return sc.GaussianClusters(clusters, r) }
			return sc.ConnectedField(gen, r, 500)
		}, 7, "n=30 e=103 b21f061bc25bce2e", 4689439345497784733},
		{"disk", 11, func(sc *Scratch, r *rng.Source, tries *int) (Topology, error) {
			// Count the tries by replaying the loop on a copy of the stream.
			replay := rng.New(11)
			for {
				*tries++
				d, err := NewRandomDisk(disk, replay)
				if err != nil || Connected(d) {
					break
				}
			}
			return sc.ConnectedRandomDisk(disk, r, 500)
		}, 6, "n=30 e=95 a13992bd5c27bce7", 9434822514784859943},
	}
	shared := NewScratch()
	for _, tc := range cases {
		for _, sc := range []*Scratch{NewScratch(), shared} {
			r := rng.New(tc.seed)
			tries := 0
			topo, err := tc.build(sc, r, &tries)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if tries != tc.wantTries {
				t.Errorf("%s: %d tries, want %d", tc.name, tries, tc.wantTries)
			}
			if got := digest(topo); got != tc.wantDigest {
				t.Errorf("%s: digest %s, want %s", tc.name, got, tc.wantDigest)
			}
			if got := r.Uint64(); got != tc.wantNext {
				t.Errorf("%s: next draw %d, want %d", tc.name, got, tc.wantNext)
			}
		}
	}
}
