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
