// Package experiments maps every table and figure of the paper's
// evaluation — plus the ext* extension studies — to a scenario registered
// in the unified scenario engine (internal/scenario). Each scenario
// regenerates a stats.Table whose series mirror the lines of the original
// plot; the CLI (cmd/pbbf) and the benchmark harness (bench_test.go) are
// thin wrappers around the registry this package builds.
//
// Scenarios run at a configurable scenario.Scale: scenario.Paper reproduces
// the paper's dimensions (75×75 grids, 10 runs per point); scenario.Quick
// shrinks everything so the full suite finishes in seconds for CI and
// benchmarks. Shapes — thresholds, orderings, crossovers — are preserved
// at both scales; see docs/EXPERIMENTS.md for the recorded outcomes.
package experiments

import (
	"pbbf/internal/scenario"
)

// Scale is scenario.Scale under the short name the scenario definitions
// in this package use.
type Scale = scenario.Scale

// sweepRange, pointSeed, and fbits forward to the scenario engine's
// shared helpers; the scenario definitions below use them constantly.
func sweepRange(from, to, step float64) []float64 { return scenario.SweepRange(from, to, step) }

func pointSeed(base uint64, parts ...uint64) uint64 { return scenario.PointSeed(base, parts...) }

func fbits(f float64) uint64 { return scenario.FloatBits(f) }
