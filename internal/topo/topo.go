// Package topo defines the network topologies the paper evaluates on:
// square-lattice grids (Section 4, analysis) and uniform random placements
// with a disk radio range (Section 5, ns-2-style simulation), plus the graph
// utilities (BFS hop distances, connectivity) the experiments need.
package topo

import (
	"fmt"
	"math"

	"pbbf/internal/rng"
)

// NodeID identifies a node within a topology; IDs are dense in [0, N).
type NodeID int

// Point is a position in meters.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(o Point) float64 {
	dx, dy := p.X-o.X, p.Y-o.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Topology is a static connectivity graph over N nodes. Neighbor slices are
// owned by the topology and must not be mutated by callers.
type Topology interface {
	// N returns the number of nodes.
	N() int
	// Neighbors returns the nodes within communication range of id.
	Neighbors(id NodeID) []NodeID
	// Position returns the node's location (meters).
	Position(id NodeID) Point
}

// Grid is a W×H square lattice with 4-neighbor connectivity and no
// wrap-around, matching the paper's analysis topology ("a square lattice
// with no wrapping on the axes").
type Grid struct {
	w, h      int
	neighbors [][]NodeID
}

var _ Topology = (*Grid)(nil)

// NewGrid constructs a W×H grid. Spacing between lattice points is 1 meter;
// positions exist only so grids satisfy Topology. All neighbor lists share
// one backing array, each clipped to its own length so an append to one
// list reallocates instead of overwriting the next.
func NewGrid(w, h int) (*Grid, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("topo: grid dimensions must be positive, got %dx%d", w, h)
	}
	g := &Grid{w: w, h: h, neighbors: make([][]NodeID, w*h)}
	backing := make([]NodeID, 0, 2*((w-1)*h+w*(h-1)))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			id := y*w + x
			start := len(backing)
			if x > 0 {
				backing = append(backing, NodeID(id-1))
			}
			if x < w-1 {
				backing = append(backing, NodeID(id+1))
			}
			if y > 0 {
				backing = append(backing, NodeID(id-w))
			}
			if y < h-1 {
				backing = append(backing, NodeID(id+w))
			}
			g.neighbors[id] = backing[start:len(backing):len(backing)]
		}
	}
	return g, nil
}

// MustGrid is NewGrid for statically known-good dimensions.
func MustGrid(w, h int) *Grid {
	g, err := NewGrid(w, h)
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the node count (W*H).
func (g *Grid) N() int { return g.w * g.h }

// Width returns the grid width.
func (g *Grid) Width() int { return g.w }

// Height returns the grid height.
func (g *Grid) Height() int { return g.h }

// Neighbors returns the up-to-four lattice neighbors of id.
func (g *Grid) Neighbors(id NodeID) []NodeID { return g.neighbors[id] }

// Position returns lattice coordinates as a Point.
func (g *Grid) Position(id NodeID) Point {
	return Point{X: float64(int(id) % g.w), Y: float64(int(id) / g.w)}
}

// Center returns the node nearest the grid center; the paper places the
// broadcast source "as near to the center of the grid as possible".
func (g *Grid) Center() NodeID {
	return NodeID((g.h/2)*g.w + g.w/2)
}

// At returns the node at lattice coordinates (x, y).
func (g *Grid) At(x, y int) NodeID { return NodeID(y*g.w + x) }

// RandomDisk is a uniform random placement of N nodes in a square region,
// with an edge between every pair of nodes within radio range R. This is the
// unit-disk graph model the paper's ns-2 simulations use.
type RandomDisk struct {
	positions []Point
	neighbors [][]NodeID
	rangeM    float64
	side      float64
	index     *CellIndex
}

var _ Topology = (*RandomDisk)(nil)

// DiskConfig parameterizes RandomDisk generation. The paper fixes N and the
// radio range and varies the deployment area A to obtain a target density
// Δ = πR²N/A (Equation 13); AreaForDensity performs that inversion.
type DiskConfig struct {
	N     int     // number of nodes
	Range float64 // radio range R in meters
	Area  float64 // deployment area A in m² (square region)
}

// AreaForDensity returns the square deployment area that yields the target
// density delta for n nodes of the given radio range (Equation 13 inverted).
func AreaForDensity(n int, rangeM, delta float64) float64 {
	return math.Pi * rangeM * rangeM * float64(n) / delta
}

// Density returns Δ = πR²N/A for the configuration (Equation 13). Δ is
// approximately the expected number of one-hop neighbors of a node.
func (c DiskConfig) Density() float64 {
	return math.Pi * c.Range * c.Range * float64(c.N) / c.Area
}

// NewRandomDisk places nodes uniformly at random in a square of area
// cfg.Area and connects pairs within cfg.Range.
func NewRandomDisk(cfg DiskConfig, r *rng.Source) (*RandomDisk, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("topo: node count must be positive, got %d", cfg.N)
	}
	if cfg.Range <= 0 || cfg.Area <= 0 {
		return nil, fmt.Errorf("topo: range and area must be positive, got R=%v A=%v", cfg.Range, cfg.Area)
	}
	side := math.Sqrt(cfg.Area)
	d := &RandomDisk{
		positions: make([]Point, cfg.N),
		rangeM:    cfg.Range,
		side:      side,
	}
	for i := range d.positions {
		d.positions[i] = Point{X: r.Float64() * side, Y: r.Float64() * side}
	}
	// Adjacency via the grid-bucket index (shared with Field): each node
	// scans only the 3x3 cell block around it (O(N·Δ) total) instead of
	// every other node (O(N²)), and the whole adjacency lives in one
	// backing array. Lists are sorted ascending, matching the order the
	// pairwise construction produced, so topologies are bit-identical to
	// the original builder.
	d.neighbors, d.index = diskAdjacency(d.positions, side, cfg.Range)
	return d, nil
}

// Index returns the topology's grid-bucket spatial index, usable for range
// queries beyond the precomputed unit-disk adjacency (e.g. interference or
// mobility extensions).
func (d *RandomDisk) Index() *CellIndex { return d.index }

// NewConnectedRandomDisk retries NewRandomDisk until the graph is connected,
// up to maxTries attempts. The paper's scenarios are implicitly connected
// (disconnected deployments make reliability metrics meaningless).
func NewConnectedRandomDisk(cfg DiskConfig, r *rng.Source, maxTries int) (*RandomDisk, error) {
	for try := 0; try < maxTries; try++ {
		d, err := NewRandomDisk(cfg, r)
		if err != nil {
			return nil, err
		}
		if Connected(d) {
			return d, nil
		}
	}
	return nil, fmt.Errorf("topo: no connected placement for N=%d Δ=%.1f after %d tries",
		cfg.N, cfg.Density(), maxTries)
}

// N returns the node count.
func (d *RandomDisk) N() int { return len(d.positions) }

// Neighbors returns the nodes within radio range of id.
func (d *RandomDisk) Neighbors(id NodeID) []NodeID { return d.neighbors[id] }

// Position returns the node's placement.
func (d *RandomDisk) Position(id NodeID) Point { return d.positions[id] }

// Range returns the radio range in meters.
func (d *RandomDisk) Range() float64 { return d.rangeM }

// Side returns the side length of the square deployment region.
func (d *RandomDisk) Side() float64 { return d.side }

// AverageDegree returns the mean neighbor count, the empirical counterpart
// of Δ.
func (d *RandomDisk) AverageDegree() float64 {
	total := 0
	for _, n := range d.neighbors {
		total += len(n)
	}
	return float64(total) / float64(len(d.neighbors))
}

// HopDistances returns BFS hop counts from src to every node; unreachable
// nodes get -1.
func HopDistances(t Topology, src NodeID) []int {
	dist, _ := HopDistancesInto(t, src, nil, nil)
	return dist
}

// HopDistancesInto is HopDistances writing the distances into dist and
// running the BFS frontier in queue, reallocating either only when its
// capacity is short of t.N(). It returns both buffers for the next call;
// the visit order, and so every distance, is HopDistances'.
func HopDistancesInto(t Topology, src NodeID, dist []int, queue []NodeID) ([]int, []NodeID) {
	n := t.N()
	dist = grown(dist, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	if cap(queue) < n {
		queue = make([]NodeID, 0, n)
	}
	queue = append(queue[:0], src)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, nb := range t.Neighbors(cur) {
			if dist[nb] < 0 {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist, queue
}

// Connected reports whether every node is reachable from node 0.
func Connected(t Topology) bool {
	if t.N() == 0 {
		return false
	}
	for _, d := range HopDistances(t, 0) {
		if d < 0 {
			return false
		}
	}
	return true
}

// NodesAtHop returns the nodes whose BFS distance from src equals hops.
func NodesAtHop(t Topology, src NodeID, hops int) []NodeID {
	dist := HopDistances(t, src)
	var out []NodeID
	for id, d := range dist {
		if d == hops {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// EdgeCount returns the number of undirected edges.
func EdgeCount(t Topology) int {
	total := 0
	for id := 0; id < t.N(); id++ {
		total += len(t.Neighbors(NodeID(id)))
	}
	return total / 2
}
