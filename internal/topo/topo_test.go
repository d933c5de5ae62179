package topo

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"pbbf/internal/raceflag"
	"pbbf/internal/rng"
)

func TestNewGridValidation(t *testing.T) {
	for _, dims := range [][2]int{{0, 5}, {5, 0}, {-1, 3}, {3, -1}} {
		if _, err := NewGrid(dims[0], dims[1]); err == nil {
			t.Fatalf("NewGrid(%d,%d) succeeded", dims[0], dims[1])
		}
	}
}

func TestGridBasics(t *testing.T) {
	g := MustGrid(3, 4)
	if g.N() != 12 {
		t.Fatalf("N = %d", g.N())
	}
	if g.Width() != 3 || g.Height() != 4 {
		t.Fatalf("dims = %dx%d", g.Width(), g.Height())
	}
}

func TestGridCornerDegree(t *testing.T) {
	g := MustGrid(5, 5)
	corners := []NodeID{g.At(0, 0), g.At(4, 0), g.At(0, 4), g.At(4, 4)}
	for _, c := range corners {
		if got := len(g.Neighbors(c)); got != 2 {
			t.Fatalf("corner %d degree %d, want 2", c, got)
		}
	}
}

func TestGridEdgeDegree(t *testing.T) {
	g := MustGrid(5, 5)
	if got := len(g.Neighbors(g.At(2, 0))); got != 3 {
		t.Fatalf("edge node degree %d, want 3", got)
	}
	if got := len(g.Neighbors(g.At(2, 2))); got != 4 {
		t.Fatalf("interior node degree %d, want 4", got)
	}
}

func TestGridNeighborsSymmetric(t *testing.T) {
	g := MustGrid(7, 3)
	for id := 0; id < g.N(); id++ {
		for _, nb := range g.Neighbors(NodeID(id)) {
			found := false
			for _, back := range g.Neighbors(nb) {
				if back == NodeID(id) {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not symmetric", id, nb)
			}
		}
	}
}

func TestGridNoWrap(t *testing.T) {
	g := MustGrid(4, 4)
	// Node (3,0) must not neighbor (0,1) (which would be id 4, wrap-around).
	for _, nb := range g.Neighbors(g.At(3, 0)) {
		if nb == g.At(0, 1) {
			t.Fatal("grid wraps around x axis")
		}
	}
}

func TestGridCenter(t *testing.T) {
	g := MustGrid(5, 5)
	if g.Center() != g.At(2, 2) {
		t.Fatalf("center = %d", g.Center())
	}
	g2 := MustGrid(4, 4)
	if g2.Center() != g2.At(2, 2) {
		t.Fatalf("even center = %d", g2.Center())
	}
}

func TestGridPositions(t *testing.T) {
	g := MustGrid(3, 3)
	p := g.Position(g.At(2, 1))
	if p.X != 2 || p.Y != 1 {
		t.Fatalf("position = %+v", p)
	}
}

func TestGridEdgeCount(t *testing.T) {
	// W×H grid has W(H-1) + H(W-1) edges.
	g := MustGrid(10, 7)
	want := 10*6 + 7*9
	if got := EdgeCount(g); got != want {
		t.Fatalf("edges = %d, want %d", got, want)
	}
}

// TestGridFlatNeighborLists pins the 3×2 grid's adjacency (order
// included) and checks that the lists, which share one backing array,
// cannot overwrite each other through append.
func TestGridFlatNeighborLists(t *testing.T) {
	g := MustGrid(3, 2)
	want := [][]NodeID{
		{1, 3}, {0, 2, 4}, {1, 5},
		{4, 0}, {3, 5, 1}, {4, 2},
	}
	for id, w := range want {
		got := g.Neighbors(NodeID(id))
		if !slices.Equal(got, w) {
			t.Fatalf("Neighbors(%d) = %v, want %v", id, got, w)
		}
		if cap(got) != len(got) {
			t.Fatalf("Neighbors(%d) has cap %d > len %d", id, cap(got), len(got))
		}
	}
	_ = append(g.Neighbors(0), 99)
	if got := g.Neighbors(1); !slices.Equal(got, want[1]) {
		t.Fatalf("append to node 0's list overwrote node 1's: %v", got)
	}
	if raceflag.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(10, func() { MustGrid(30, 30) }); allocs > 3 {
		t.Fatalf("NewGrid(30, 30) allocates %.0f times, want <= 3", allocs)
	}
}

// TestHopDistancesIntoReusesBuffers: a warm call allocates nothing, and a
// smaller topology after a larger one sees only its own nodes.
func TestHopDistancesIntoReusesBuffers(t *testing.T) {
	big, small := MustGrid(6, 6), MustGrid(3, 2)
	dist, queue := HopDistancesInto(big, 0, nil, nil)
	dist, queue = HopDistancesInto(small, small.At(2, 1), dist, queue)
	if want := []int{3, 2, 1, 2, 1, 0}; !slices.Equal(dist, want) {
		t.Fatalf("dist = %v, want %v", dist, want)
	}
	if raceflag.Enabled {
		return
	}
	if allocs := testing.AllocsPerRun(10, func() {
		dist, queue = HopDistancesInto(big, big.Center(), dist, queue)
	}); allocs != 0 {
		t.Fatalf("warm HopDistancesInto allocates %.0f times, want 0", allocs)
	}
}

func TestHopDistancesGrid(t *testing.T) {
	g := MustGrid(5, 5)
	dist := HopDistances(g, g.At(0, 0))
	if dist[g.At(4, 4)] != 8 {
		t.Fatalf("corner-to-corner distance = %d, want 8", dist[g.At(4, 4)])
	}
	if dist[g.At(0, 0)] != 0 {
		t.Fatal("self distance nonzero")
	}
	// Manhattan distance on a full grid.
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			if dist[g.At(x, y)] != x+y {
				t.Fatalf("dist(%d,%d) = %d, want %d", x, y, dist[g.At(x, y)], x+y)
			}
		}
	}
}

func TestNodesAtHop(t *testing.T) {
	g := MustGrid(5, 5)
	nodes := NodesAtHop(g, g.Center(), 1)
	if len(nodes) != 4 {
		t.Fatalf("nodes at hop 1 from center = %d, want 4", len(nodes))
	}
	zero := NodesAtHop(g, g.Center(), 100)
	if len(zero) != 0 {
		t.Fatalf("nodes at hop 100 = %d, want 0", len(zero))
	}
}

func TestConnectedGrid(t *testing.T) {
	if !Connected(MustGrid(6, 6)) {
		t.Fatal("grid reported disconnected")
	}
}

func TestDiskConfigValidation(t *testing.T) {
	r := rng.New(1)
	bad := []DiskConfig{
		{N: 0, Range: 1, Area: 1},
		{N: 5, Range: 0, Area: 1},
		{N: 5, Range: 1, Area: 0},
	}
	for _, cfg := range bad {
		if _, err := NewRandomDisk(cfg, r); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

func TestAreaForDensityRoundTrip(t *testing.T) {
	area := AreaForDensity(50, 30, 10)
	cfg := DiskConfig{N: 50, Range: 30, Area: area}
	if got := cfg.Density(); math.Abs(got-10) > 1e-9 {
		t.Fatalf("density round trip = %v", got)
	}
}

func TestRandomDiskPositionsInBounds(t *testing.T) {
	r := rng.New(2)
	cfg := DiskConfig{N: 100, Range: 30, Area: AreaForDensity(100, 30, 10)}
	d, err := NewRandomDisk(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < d.N(); id++ {
		p := d.Position(NodeID(id))
		if p.X < 0 || p.X > d.Side() || p.Y < 0 || p.Y > d.Side() {
			t.Fatalf("node %d at %+v outside [0,%v]²", id, p, d.Side())
		}
	}
}

func TestRandomDiskEdgesRespectRange(t *testing.T) {
	r := rng.New(3)
	cfg := DiskConfig{N: 80, Range: 25, Area: AreaForDensity(80, 25, 12)}
	d, err := NewRandomDisk(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < d.N(); id++ {
		for _, nb := range d.Neighbors(NodeID(id)) {
			if dist := d.Position(NodeID(id)).Dist(d.Position(nb)); dist > cfg.Range+1e-9 {
				t.Fatalf("edge %d-%d spans %v > range %v", id, nb, dist, cfg.Range)
			}
		}
	}
	// And all in-range pairs are edges.
	for i := 0; i < d.N(); i++ {
		for j := i + 1; j < d.N(); j++ {
			inRange := d.Position(NodeID(i)).Dist(d.Position(NodeID(j))) <= cfg.Range
			isEdge := false
			for _, nb := range d.Neighbors(NodeID(i)) {
				if nb == NodeID(j) {
					isEdge = true
				}
			}
			if inRange != isEdge {
				t.Fatalf("pair %d,%d: inRange=%v isEdge=%v", i, j, inRange, isEdge)
			}
		}
	}
}

func TestRandomDiskDeterministic(t *testing.T) {
	cfg := DiskConfig{N: 50, Range: 30, Area: AreaForDensity(50, 30, 10)}
	d1, err := NewRandomDisk(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewRandomDisk(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < d1.N(); id++ {
		if d1.Position(NodeID(id)) != d2.Position(NodeID(id)) {
			t.Fatalf("node %d placed differently across identical seeds", id)
		}
	}
}

func TestRandomDiskAverageDegreeNearDensity(t *testing.T) {
	// With many nodes the empirical mean degree approaches Δ (boundary
	// effects bias it slightly low).
	r := rng.New(11)
	const delta = 12.0
	cfg := DiskConfig{N: 2000, Range: 20, Area: AreaForDensity(2000, 20, delta)}
	d, err := NewRandomDisk(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	got := d.AverageDegree()
	if got < delta*0.75 || got > delta*1.05 {
		t.Fatalf("average degree %v far from Δ=%v", got, delta)
	}
}

func TestNewConnectedRandomDisk(t *testing.T) {
	r := rng.New(5)
	cfg := DiskConfig{N: 50, Range: 30, Area: AreaForDensity(50, 30, 10)}
	d, err := NewConnectedRandomDisk(cfg, r, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !Connected(d) {
		t.Fatal("result not connected")
	}
}

func TestNewConnectedRandomDiskGivesUp(t *testing.T) {
	r := rng.New(6)
	// Δ≈0.03: essentially no edges, never connected.
	cfg := DiskConfig{N: 40, Range: 1, Area: AreaForDensity(40, 1, 0.03)}
	if _, err := NewConnectedRandomDisk(cfg, r, 3); err == nil {
		t.Fatal("expected failure for ultra-sparse config")
	}
}

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("dist = %v", d)
	}
}

// Property: BFS distances satisfy the triangle-ish property along edges —
// adjacent nodes differ by at most 1 hop — and distances grow from the root.
func TestPropertyBFSConsistency(t *testing.T) {
	check := func(seed uint64, rawW, rawH uint8) bool {
		w := int(rawW)%12 + 2
		h := int(rawH)%12 + 2
		g := MustGrid(w, h)
		src := NodeID(seed % uint64(g.N()))
		dist := HopDistances(g, src)
		if dist[src] != 0 {
			return false
		}
		for id := 0; id < g.N(); id++ {
			for _, nb := range g.Neighbors(NodeID(id)) {
				diff := dist[id] - dist[nb]
				if diff < -1 || diff > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: random disk graphs are undirected (symmetric neighbor lists).
func TestPropertyDiskSymmetric(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		cfg := DiskConfig{N: 40, Range: 30, Area: AreaForDensity(40, 30, 8)}
		d, err := NewRandomDisk(cfg, r)
		if err != nil {
			return false
		}
		for id := 0; id < d.N(); id++ {
			for _, nb := range d.Neighbors(NodeID(id)) {
				found := false
				for _, back := range d.Neighbors(nb) {
					if back == NodeID(id) {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGridBFS75(b *testing.B) {
	g := MustGrid(75, 75)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = HopDistances(g, g.Center())
	}
}

func BenchmarkRandomDiskBuild(b *testing.B) {
	cfg := DiskConfig{N: 50, Range: 30, Area: AreaForDensity(50, 30, 10)}
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = NewRandomDisk(cfg, r)
	}
}
