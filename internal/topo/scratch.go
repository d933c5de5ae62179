// This file holds Scratch, the pooled topology builder. Every generator in
// the package has a Scratch counterpart that performs the same random draws
// and produces bit-identical adjacency, but builds into buffers owned by the
// Scratch: positions, neighbor lists, the single backing array, the spatial
// index (including its counting-sort cursor), the BFS frontier, and the
// topology value itself are all reused across builds. A sweep running
// thousands of points through one Scratch constructs topologies with zero
// steady-state allocation.
//
// A Scratch holds ONE topology at a time: any build or BFS query invalidates
// the previously returned topology and distance slice. Scratches are not
// safe for concurrent use; give each worker its own.

package topo

import (
	"fmt"
	"math"
	"slices"

	"pbbf/internal/rng"
)

// grown returns s resized to length n, reusing its capacity when possible.
// The contents are unspecified; callers overwrite every element.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Scratch owns the reusable buffers for pooled topology construction and
// graph queries. The zero value is ready to use.
type Scratch struct {
	positions []Point
	centers   []Point
	neighbors [][]NodeID
	backing   []NodeID
	degree    []int32
	fill      []int32
	index     CellIndex
	disk      RandomDisk
	field     Field
	dist      []int
	queue     []NodeID
}

// NewScratch returns an empty scratch; buffers grow to fit on first use.
func NewScratch() *Scratch { return &Scratch{} }

// diskAdjacency is the package-level diskAdjacency building into the
// scratch's buffers: same cell-index scan, same single-backing-array layout,
// same ascending sort, so the lists are bit-identical to the unpooled
// construction.
func (sc *Scratch) diskAdjacency(positions []Point, extent, rangeM float64) ([][]NodeID, *CellIndex) {
	n := len(positions)
	sc.index.build(positions, extent, rangeM, &sc.fill)
	index := &sc.index
	sc.neighbors = grown(sc.neighbors, n)
	sc.degree = grown(sc.degree, n)
	neighbors, degree := sc.neighbors, sc.degree
	total := 0
	for i := 0; i < n; i++ {
		k := 0
		index.ForEachWithin(positions[i], rangeM, func(NodeID) { k++ })
		degree[i] = int32(k - 1) // exclude self
		total += k - 1
	}
	if cap(sc.backing) < total {
		sc.backing = make([]NodeID, 0, total)
	}
	backing := sc.backing[:0]
	for i := 0; i < n; i++ {
		start := len(backing)
		index.ForEachWithin(positions[i], rangeM, func(j NodeID) {
			if int(j) != i {
				backing = append(backing, j)
			}
		})
		list := backing[start : start+int(degree[i]) : start+int(degree[i])]
		slices.Sort(list)
		neighbors[i] = list
	}
	sc.backing = backing
	return neighbors, index
}

// RandomDisk is NewRandomDisk building into the scratch: identical draws
// (two Float64 per node, in node order) and identical adjacency. The
// returned topology is valid until the next build on sc.
func (sc *Scratch) RandomDisk(cfg DiskConfig, r *rng.Source) (*RandomDisk, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("topo: node count must be positive, got %d", cfg.N)
	}
	if cfg.Range <= 0 || cfg.Area <= 0 {
		return nil, fmt.Errorf("topo: range and area must be positive, got R=%v A=%v", cfg.Range, cfg.Area)
	}
	side := math.Sqrt(cfg.Area)
	sc.positions = grown(sc.positions, cfg.N)
	for i := range sc.positions {
		sc.positions[i] = Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	neighbors, index := sc.diskAdjacency(sc.positions, side, cfg.Range)
	sc.disk = RandomDisk{
		positions: sc.positions,
		neighbors: neighbors,
		rangeM:    cfg.Range,
		side:      side,
		index:     index,
	}
	return &sc.disk, nil
}

// ConnectedRandomDisk is NewConnectedRandomDisk on the scratch: the same
// retry loop over the same draws, with the connectivity check running on the
// scratch's BFS buffers.
func (sc *Scratch) ConnectedRandomDisk(cfg DiskConfig, r *rng.Source, maxTries int) (*RandomDisk, error) {
	for try := 0; try < maxTries; try++ {
		d, err := sc.RandomDisk(cfg, r)
		if err != nil {
			return nil, err
		}
		if sc.Connected(d) {
			return d, nil
		}
	}
	return nil, fmt.Errorf("topo: no connected placement for N=%d Δ=%.1f after %d tries",
		cfg.N, cfg.Density(), maxTries)
}

// GaussianClusters is NewGaussianClusters on the scratch: identical center
// and scatter draws, pooled placement and adjacency.
func (sc *Scratch) GaussianClusters(cfg ClusterConfig, r *rng.Source) (*Field, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	side := math.Sqrt(cfg.Area)
	sc.centers = grown(sc.centers, cfg.Clusters)
	for i := range sc.centers {
		sc.centers[i] = Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	sc.positions = grown(sc.positions, cfg.N)
	for i := range sc.positions {
		c := sc.centers[i%cfg.Clusters]
		sc.positions[i] = Point{
			X: clampTo(c.X+cfg.Sigma*r.NormFloat64(), side),
			Y: clampTo(c.Y+cfg.Sigma*r.NormFloat64(), side),
		}
	}
	return sc.buildField(sc.positions, side, side, cfg.Range)
}

// Corridor is NewCorridor on the scratch.
func (sc *Scratch) Corridor(cfg CorridorConfig, r *rng.Source) (*Field, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := math.Sqrt(cfg.Area * cfg.Aspect)
	h := cfg.Area / w
	sc.positions = grown(sc.positions, cfg.N)
	for i := range sc.positions {
		sc.positions[i] = Point{X: r.Float64() * w, Y: r.Float64() * h}
	}
	return sc.buildField(sc.positions, w, h, cfg.Range)
}

// buildField is NewField into the scratch's Field shell.
func (sc *Scratch) buildField(positions []Point, w, h, rangeM float64) (*Field, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("topo: empty placement")
	}
	if rangeM <= 0 || w <= 0 || h <= 0 {
		return nil, fmt.Errorf("topo: range and extent must be positive, got R=%v w=%v h=%v", rangeM, w, h)
	}
	neighbors, index := sc.diskAdjacency(positions, math.Max(w, h), rangeM)
	sc.field = Field{positions: positions, neighbors: neighbors, rangeM: rangeM, w: w, h: h, index: index}
	return &sc.field, nil
}

// ConnectedField is NewConnectedField on the scratch: gen should build into
// this same scratch, and connectivity is checked with the scratch's BFS
// buffers.
func (sc *Scratch) ConnectedField(gen func(*rng.Source) (*Field, error), r *rng.Source, maxTries int) (*Field, error) {
	for try := 0; try < maxTries; try++ {
		f, err := gen(r)
		if err != nil {
			return nil, err
		}
		if sc.Connected(f) {
			return f, nil
		}
	}
	return nil, fmt.Errorf("topo: no connected placement after %d tries", maxTries)
}

// HopDistances is HopDistancesInto on the scratch's buffers. The returned
// slice is valid until the next build or query on sc.
func (sc *Scratch) HopDistances(t Topology, src NodeID) []int {
	sc.dist, sc.queue = HopDistancesInto(t, src, sc.dist, sc.queue)
	return sc.dist
}

// Connected is the package-level Connected using the scratch's BFS buffers.
func (sc *Scratch) Connected(t Topology) bool {
	if t.N() == 0 {
		return false
	}
	for _, d := range sc.HopDistances(t, 0) {
		if d < 0 {
			return false
		}
	}
	return true
}
