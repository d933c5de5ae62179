// This file holds the non-uniform deployments. The paper evaluates only
// uniform random disks and square lattices; real sensor fields are rarely
// either. Field is a unit-disk graph over an arbitrary node placement in a
// rectangle, and the generators below produce the two deployment shapes the
// scenario-diversity extensions sweep: Gaussian-clustered fields (nodes
// scattered around a few deployment sites) and corridor/strip fields
// (pipelines, roads, tunnels — long thin regions whose broadcasts are
// forced through every gap).

package topo

import (
	"fmt"
	"math"

	"pbbf/internal/rng"
)

// Field is a unit-disk graph over an arbitrary placement of nodes in a
// width×height rectangle: an edge connects every pair of nodes within radio
// range. RandomDisk is the uniform square special case; Field backs the
// clustered and corridor deployments.
type Field struct {
	positions []Point
	neighbors [][]NodeID
	rangeM    float64
	w, h      float64
	index     *CellIndex
}

var _ Topology = (*Field)(nil)

// NewField builds the disk graph over the given placement, which the
// returned field keeps. Positions are expected inside [0,w)×[0,h); the
// spatial index clamps strays into border cells, so out-of-rectangle points
// degrade performance, not correctness.
func NewField(positions []Point, w, h, rangeM float64) (*Field, error) {
	return NewScratch().buildField(positions, w, h, rangeM)
}

// N returns the node count.
func (f *Field) N() int { return len(f.positions) }

// Neighbors returns the nodes within radio range of id.
func (f *Field) Neighbors(id NodeID) []NodeID { return f.neighbors[id] }

// Position returns the node's placement.
func (f *Field) Position(id NodeID) Point { return f.positions[id] }

// Range returns the radio range in meters.
func (f *Field) Range() float64 { return f.rangeM }

// Width and Height return the deployment rectangle's extent.
func (f *Field) Width() float64  { return f.w }
func (f *Field) Height() float64 { return f.h }

// Index returns the field's grid-bucket spatial index.
func (f *Field) Index() *CellIndex { return f.index }

// AverageDegree returns the mean neighbor count, the empirical counterpart
// of the density Δ.
func (f *Field) AverageDegree() float64 {
	total := 0
	for _, n := range f.neighbors {
		total += len(n)
	}
	return float64(total) / float64(len(f.neighbors))
}

// ClusterConfig parameterizes a Gaussian-clustered deployment: nodes are
// scattered with a normal spread around a handful of cluster centers
// (deployment sites), instead of uniformly over the whole region.
type ClusterConfig struct {
	// N is the number of nodes.
	N int
	// Range is the radio range R in meters.
	Range float64
	// Area is the deployment region's area in m² (square region, as in
	// DiskConfig, so AreaForDensity applies unchanged).
	Area float64
	// Clusters is the number of cluster centers.
	Clusters int
	// Sigma is the per-axis standard deviation (meters) of node positions
	// around their cluster center. Small sigma relative to Range makes
	// tight, sparsely interconnected blobs; large sigma degenerates toward
	// the uniform field.
	Sigma float64
}

// Validate checks the configuration.
func (c ClusterConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("topo: node count must be positive, got %d", c.N)
	}
	if c.Range <= 0 || c.Area <= 0 {
		return fmt.Errorf("topo: range and area must be positive, got R=%v A=%v", c.Range, c.Area)
	}
	if c.Clusters <= 0 || c.Clusters > c.N {
		return fmt.Errorf("topo: cluster count %d outside [1,%d]", c.Clusters, c.N)
	}
	if c.Sigma <= 0 {
		return fmt.Errorf("topo: cluster sigma %v must be positive", c.Sigma)
	}
	return nil
}

// NewGaussianClusters places cfg.Clusters centers uniformly at random in
// the square region, assigns nodes to centers round-robin (so clusters are
// balanced regardless of N), and scatters each node around its center with
// an isotropic Gaussian of standard deviation cfg.Sigma, clamped into the
// region. Clustered draws may be disconnected far more often than uniform
// ones; use NewConnectedField for the retry loop. It builds on a fresh
// Scratch, which the returned field owns.
func NewGaussianClusters(cfg ClusterConfig, r *rng.Source) (*Field, error) {
	return NewScratch().GaussianClusters(cfg, r)
}

// clampTo clamps v into [0, limit).
func clampTo(v, limit float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= limit {
		return math.Nextafter(limit, 0)
	}
	return v
}

// CorridorConfig parameterizes a corridor/strip deployment: the same area
// as a square field, stretched into a length/width ratio of Aspect. High
// aspect ratios force every broadcast through a chain of narrow gaps — the
// opposite stress from clustering.
type CorridorConfig struct {
	// N is the number of nodes.
	N int
	// Range is the radio range R in meters.
	Range float64
	// Area is the deployment area in m²; the rectangle is
	// sqrt(Area·Aspect) × sqrt(Area/Aspect), so density Δ = πR²N/A is
	// directly comparable with the square deployments.
	Area float64
	// Aspect is the length/width ratio, ≥ 1 (1 reproduces the square).
	Aspect float64
}

// Validate checks the configuration.
func (c CorridorConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("topo: node count must be positive, got %d", c.N)
	}
	if c.Range <= 0 || c.Area <= 0 {
		return fmt.Errorf("topo: range and area must be positive, got R=%v A=%v", c.Range, c.Area)
	}
	if c.Aspect < 1 {
		return fmt.Errorf("topo: corridor aspect %v must be >= 1", c.Aspect)
	}
	return nil
}

// NewCorridor places nodes uniformly at random in the Aspect-stretched
// rectangle. Long corridors disconnect whenever a lengthwise gap exceeds
// the radio range; use NewConnectedField for the retry loop. It builds on a
// fresh Scratch, which the returned field owns.
func NewCorridor(cfg CorridorConfig, r *rng.Source) (*Field, error) {
	return NewScratch().Corridor(cfg, r)
}

// NewConnectedField retries gen until it returns a connected field, up to
// maxTries attempts — the Field version of NewConnectedRandomDisk. The
// generator draws from r on every attempt, so each try sees a fresh
// placement.
func NewConnectedField(gen func(*rng.Source) (*Field, error), r *rng.Source, maxTries int) (*Field, error) {
	return NewScratch().ConnectedField(gen, r, maxTries)
}
