package topo

import (
	"math"
	"slices"
)

// CellIndex is a grid-bucket spatial index over a fixed set of points: the
// deployment square is divided into cells of side cellSize, and each point
// is filed under its cell. Range queries with radius <= cellSize touch at
// most the 3x3 block of cells around the query point instead of scanning
// every node, turning the O(N^2) pairwise neighbor construction of a random
// field into O(N * density).
//
// The index is flat — one counting-sort pass lays every bucket out in a
// single backing array — so building it costs O(N) time and three
// allocations regardless of field size.
type CellIndex struct {
	cellSize   float64
	cols, rows int
	// starts[c] .. starts[c+1] delimit cell c's slice of nodes.
	starts []int32
	nodes  []NodeID
	pts    []Point
}

// NewCellIndex buckets pts into cells of side cellSize covering [0,side) on
// both axes. cellSize must be positive; points outside the square are
// clamped into the border cells.
func NewCellIndex(pts []Point, side, cellSize float64) *CellIndex {
	ci := &CellIndex{}
	ci.build(pts, side, cellSize, nil)
	return ci
}

// build populates the index in place, reusing the starts/nodes arrays when
// their capacity allows; NewCellIndex builds a fresh one. fillScratch,
// when non-nil, supplies the counting-sort placement cursor's storage so a
// rebuilt index allocates nothing at steady state.
func (ci *CellIndex) build(pts []Point, side, cellSize float64, fillScratch *[]int32) {
	if cellSize <= 0 {
		panic("topo: cell size must be positive")
	}
	cols := int(side/cellSize) + 1
	if cols < 1 {
		cols = 1
	}
	ncells := cols * cols
	ci.cellSize = cellSize
	ci.cols, ci.rows = cols, cols
	ci.starts = grown(ci.starts, ncells+1)
	clear(ci.starts)
	ci.nodes = grown(ci.nodes, len(pts))
	ci.pts = pts
	// Counting sort: tally per cell, prefix-sum, then place.
	counts := ci.starts[1:] // reuse the starts array as the tally
	for _, p := range pts {
		counts[ci.cellOf(p)]++
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	// starts is now the prefix sum shifted by one; fill buckets back to
	// front so each bucket ends up in ascending node order.
	var fill []int32
	if fillScratch != nil {
		*fillScratch = grown(*fillScratch, ncells)
		fill = *fillScratch
	} else {
		fill = make([]int32, ncells)
	}
	copy(fill, ci.starts[:ncells])
	for i, p := range pts {
		c := ci.cellOf(p)
		ci.nodes[fill[c]] = NodeID(i)
		fill[c]++
	}
}

// cellOf maps a point to its cell number, clamping out-of-square points.
func (ci *CellIndex) cellOf(p Point) int {
	cx := int(p.X / ci.cellSize)
	cy := int(p.Y / ci.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= ci.cols {
		cx = ci.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= ci.rows {
		cy = ci.rows - 1
	}
	return cy*ci.cols + cx
}

// appendWithin appends to dst every indexed node other than skip within
// radius r of p (inclusive), in cell order. r should be <= the index cell
// size for the 3x3 scan to be exhaustive; larger radii widen the scanned
// block accordingly, so correctness never depends on r.
func (ci *CellIndex) appendWithin(dst []NodeID, p Point, r float64, skip NodeID) []NodeID {
	span := int(math.Ceil(r / ci.cellSize))
	cx := int(p.X / ci.cellSize)
	cy := int(p.Y / ci.cellSize)
	for y := max(cy-span, 0); y <= min(cy+span, ci.rows-1); y++ {
		for x := max(cx-span, 0); x <= min(cx+span, ci.cols-1); x++ {
			c := y*ci.cols + x
			for _, id := range ci.nodes[ci.starts[c]:ci.starts[c+1]] {
				if id != skip && ci.pts[id].Dist(p) <= r {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// Within returns the indexed nodes within radius r of p in ascending ID
// order.
func (ci *CellIndex) Within(p Point, r float64) []NodeID {
	out := ci.appendWithin(nil, p, r, -1)
	slices.Sort(out)
	return out
}
