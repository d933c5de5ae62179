// This file holds Scratch, the one implementation of every random-field
// generator in the package. A Scratch builds into buffers it owns:
// positions, neighbor lists, the single backing array, the spatial index
// (including its counting-sort cursor), the BFS frontier, and the topology
// value itself are all reused across builds. A sweep running thousands of
// points through one Scratch constructs topologies with zero steady-state
// allocation. The package-level random-field builders (NewRandomDisk,
// NewField, NewGaussianClusters, ...) each run on a fresh Scratch that the
// returned topology keeps, so their results are never invalidated.
//
// A Scratch holds ONE topology at a time: any build or BFS query invalidates
// the previously returned topology and distance slice. Scratches are not
// safe for concurrent use; lease each to one point at a time.

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
	ends      []int32
	fill      []int32
	index     CellIndex
	disk      RandomDisk
	field     Field
	dist      []int
	queue     []NodeID
}

// NewScratch returns an empty scratch; buffers grow to fit on first use.
func NewScratch() *Scratch { return &Scratch{} }

// diskAdjacency builds unit-disk adjacency lists over positions via the
// grid-bucket index: each node scans only the cell block around it
// (O(N·Δ) total) instead of every other node (O(N²)), and the whole
// adjacency lives in one backing array. One scan per node appends its
// neighbors to the backing array; the lists are sliced from it after the
// scan, since an append may move the array. The lists come out in cell
// order; sortLists puts them in the ascending order the pairwise
// construction produces (TestRandomDiskMatchesPairwiseBuilder).
func (sc *Scratch) diskAdjacency(positions []Point, extent, rangeM float64) ([][]NodeID, *CellIndex) {
	n := len(positions)
	sc.index.build(positions, extent, rangeM, &sc.fill)
	index := &sc.index
	sc.neighbors = grown(sc.neighbors, n)
	sc.ends = grown(sc.ends, n)
	backing := sc.backing[:0]
	for i := 0; i < n; i++ {
		backing = index.appendWithin(backing, positions[i], rangeM, NodeID(i))
		sc.ends[i] = int32(len(backing))
	}
	sc.backing = backing
	start := int32(0)
	for i, end := range sc.ends {
		sc.neighbors[i] = backing[start:end:end]
		start = end
	}
	return sc.neighbors, index
}

// sortLists sorts every adjacency list ascending.
func sortLists(neighbors [][]NodeID) {
	for _, list := range neighbors {
		slices.Sort(list)
	}
}

// RandomDisk places cfg.N nodes uniformly at random in a square of area
// cfg.Area, drawing two Float64 per node in node order, and connects pairs
// within cfg.Range. The returned topology is valid until the next build on
// sc.
func (sc *Scratch) RandomDisk(cfg DiskConfig, r *rng.Source) (*RandomDisk, error) {
	d, err := sc.randomDisk(cfg, r)
	if err != nil {
		return nil, err
	}
	sortLists(d.neighbors)
	return d, nil
}

// randomDisk is RandomDisk with its adjacency lists left unsorted.
func (sc *Scratch) randomDisk(cfg DiskConfig, r *rng.Source) (*RandomDisk, error) {
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

// ConnectedRandomDisk retries RandomDisk until the graph is connected, up to
// maxTries attempts, checking connectivity on the scratch's BFS buffers.
// Connectivity does not depend on list order, so only the placement kept
// has its lists sorted; every try draws exactly what RandomDisk draws.
func (sc *Scratch) ConnectedRandomDisk(cfg DiskConfig, r *rng.Source, maxTries int) (*RandomDisk, error) {
	for try := 0; try < maxTries; try++ {
		d, err := sc.randomDisk(cfg, r)
		if err != nil {
			return nil, err
		}
		if sc.Connected(d) {
			sortLists(d.neighbors)
			return d, nil
		}
	}
	return nil, fmt.Errorf("topo: no connected placement for N=%d Δ=%.1f after %d tries",
		cfg.N, cfg.Density(), maxTries)
}

// GaussianClusters builds the clustered field NewGaussianClusters
// describes: all center draws first, then two normal draws per node.
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

// Corridor builds the stretched uniform field NewCorridor describes.
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

// buildField builds the disk graph over positions into the scratch's Field
// shell; the field keeps positions.
func (sc *Scratch) buildField(positions []Point, w, h, rangeM float64) (*Field, error) {
	if len(positions) == 0 {
		return nil, fmt.Errorf("topo: empty placement")
	}
	if rangeM <= 0 || w <= 0 || h <= 0 {
		return nil, fmt.Errorf("topo: range and extent must be positive, got R=%v w=%v h=%v", rangeM, w, h)
	}
	neighbors, index := sc.diskAdjacency(positions, math.Max(w, h), rangeM)
	sortLists(neighbors)
	sc.field = Field{positions: positions, neighbors: neighbors, rangeM: rangeM, w: w, h: h, index: index}
	return &sc.field, nil
}

// ConnectedField retries gen until it returns a connected field, up to
// maxTries attempts, checking connectivity on the scratch's BFS buffers. gen
// may build into this same scratch.
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

// Connected reports whether every node is reachable from node 0, using the
// scratch's BFS buffers.
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
