package idealsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/raceflag"
	"pbbf/internal/topo"
)

// poolSequence is a config sequence that makes a pool grow, shrink and
// grow again, and switch T-MAC, hop tracking, q and the frame length
// between runs, so stale state from any earlier run would show.
func poolSequence() []Config {
	stretched := core.Timing{Active: time.Second, Frame: 20 * time.Second} // 5% duty
	var out []Config
	add := func(w, h int, params core.Params, seed uint64, mutate func(*Config)) {
		cfg := testConfig(w, h, params, seed)
		cfg.Updates = 3
		if mutate != nil {
			mutate(&cfg)
		}
		out = append(out, cfg)
	}
	add(30, 30, core.Params{P: 0.5, Q: 0.25}, 1, func(c *Config) {
		c.TrackHopDistances = []int{5, 12, 5}
	})
	add(10, 10, core.Params{P: 0.75, Q: 0}, 2, func(c *Config) {
		c.ExtendOnReceive = 2 * time.Second
	})
	add(30, 30, core.Params{P: 1, Q: 1}, 3, func(c *Config) {
		c.Timing = stretched
	})
	add(10, 10, core.Params{P: 0.5, Q: 0.25}, 4, func(c *Config) {
		c.ExtendOnReceive = 2 * time.Second
		c.TrackHopDistances = []int{3}
		c.Timing = stretched
	})
	add(30, 30, core.Params{P: 0.75, Q: 0.25}, 5, nil)
	add(30, 30, core.PSM(), 6, func(c *Config) {
		c.TrackHopDistances = []int{10}
		c.Timing = stretched
	})
	return out
}

// TestPoolMatchesRun: one pool running a mixed config sequence, twice
// over, returns exactly what a fresh Run returns for each config.
func TestPoolMatchesRun(t *testing.T) {
	seq := poolSequence()
	pool := NewPool()
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range seq {
			want, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pool.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d config %d: pooled result differs from a fresh Run\npooled: %+v\nfresh:  %+v", pass, i, got, want)
			}
		}
	}
	if _, err := pool.Run(Config{}); err == nil {
		t.Fatal("pool accepted an invalid config")
	}
}

// TestPoolConservesTime: every node's awake and asleep time add up to the
// accounted frames, and the frame count by integer threshold equals
// summing the coin frame by frame, as the energy account did before.
func TestPoolConservesTime(t *testing.T) {
	pool := NewPool()
	for i, cfg := range poolSequence() {
		pool.reset(cfg)
		const frames = 37
		baseExt := min(cfg.ExtendOnReceive, cfg.Timing.Sleep())
		for id := range pool.nodes {
			node := topo.NodeID(id)
			awake, asleep := pool.nodeTimes(node, frames)
			if awake+asleep != frames*cfg.Timing.Frame {
				t.Fatalf("config %d node %d: awake %v + asleep %v != %d frames of %v",
					i, id, awake, asleep, frames, cfg.Timing.Frame)
			}
			var wantAwake, wantAsleep time.Duration
			for f := int64(0); f < frames; f++ {
				if pool.stayAwakeCoin(node, f) {
					wantAwake += cfg.Timing.Frame
				} else {
					wantAwake += cfg.Timing.Active + baseExt
					wantAsleep += cfg.Timing.Sleep() - baseExt
				}
			}
			if awake != wantAwake || asleep != wantAsleep {
				t.Fatalf("config %d node %d: nodeTimes = (%v, %v), frame-by-frame (%v, %v)",
					i, id, awake, asleep, wantAwake, wantAsleep)
			}
		}
	}
}

// TestPoolWarmRunAllocations: once a pool has seen a topology size, a run
// allocates only its Result: the struct, its coverage slice and three
// maps, plus the maps' storage and two accumulators when one hop distance
// is tracked.
func TestPoolWarmRunAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless under -race")
	}
	for _, c := range []struct {
		name string
		cfg  Config
		max  float64
	}{
		{"pbbf", testConfig(30, 30, core.Params{P: 0.5, Q: 0.25}, 1), 5},
		{"tracked+tmac", poolSequence()[3], 10},
	} {
		pool := NewPool()
		if _, err := pool.Run(c.cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := pool.Run(c.cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Fatalf("%s: warm pooled run allocates %.0f times, want <= %.0f", c.name, allocs, c.max)
		}
	}
}

// BenchmarkIdealPoint is one bench-scale ideal-MAC point (40×40 grid,
// PBBF p=0.5 q=0.25, four updates) on a warm pool.
func BenchmarkIdealPoint(b *testing.B) {
	cfg := testConfig(40, 40, core.Params{P: 0.5, Q: 0.25}, 1)
	cfg.Updates = 4
	pool := NewPool()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pool.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// pinnedCases covers both send modes, T-MAC, hop tracking and stretched
// and shortened frames.
func pinnedCases() []Config {
	mk := func(w int, params core.Params, seed uint64, mutate func(*Config)) Config {
		cfg := testConfig(w, w, params, seed)
		cfg.Updates = 4
		if mutate != nil {
			mutate(&cfg)
		}
		return cfg
	}
	return []Config{
		mk(30, core.Params{P: 0.5, Q: 0.25}, 11, func(c *Config) { c.TrackHopDistances = []int{8} }),
		mk(30, core.Params{P: 0.75, Q: 0.5}, 12, func(c *Config) { c.ExtendOnReceive = 2 * time.Second }),
		mk(20, core.Params{P: 1, Q: 0.3}, 13, func(c *Config) {
			c.Timing = core.Timing{Active: time.Second, Frame: 20 * time.Second}
		}),
		mk(25, core.PSM(), 14, nil),
		mk(30, core.Params{P: 0.25, Q: 0.75}, 15, func(c *Config) {
			c.ExtendOnReceive = time.Second
			c.TrackHopDistances = []int{5}
			c.Timing = core.Timing{Active: time.Second, Frame: 5 * time.Second}
		}),
	}
}

// summarize renders every Result field that a change of delivery order,
// coin or energy account would move.
func summarize(r *Result) string {
	s := fmt.Sprintf("cov=%v energy=%v lat=%d/%v/%v", r.Coverage, r.EnergyPerUpdateJ,
		r.PerHopLatency.N(), r.PerHopLatency.Mean(), r.PerHopLatency.Variance())
	for d, acc := range r.HopsAtDistance {
		s += fmt.Sprintf(" d%d=%d:%d/%v/%v", d, r.NodesAtDistance[d], acc.N(), acc.Mean(), r.LatencyAtDistance[d].Mean())
	}
	return s
}

// TestPinnedResults pins exact results recorded from the unpooled
// engine, which kept every pending delivery in the kernel's heap and
// drew the stay-awake coin as a float compare for every (node, frame).
func TestPinnedResults(t *testing.T) {
	want := []string{
		"cov=[0.9077777777777778 0.8255555555555556 0.5788888888888889 0.4255555555555556] energy=0.980782879421174 lat=2460/6.722093921311566/1.0813912594331103 d8=32:94/15.25531914893617/101.23404255319149",
		"cov=[0.9344444444444444 0.9611111111111111 0.9766666666666667 0.9744444444444444] energy=1.9970583016339691 lat=3458/2.8957624977450163/0.5191409330134741",
		"cov=[0.0225 0.0275 0.06 0.02] energy=0.966416333123897 lat=48/2.0491484788359795/0.11970614006947014",
		"cov=[1 1 1 1] energy=0.3016299999659982 lat=2496/9.191409255357163/0.5756660810791492",
		"cov=[1 1 1 0.9988888888888889] energy=2.5703735584382335 lat=3595/3.071069847638224/0.24557343050971708 d5=20:80/5.224999999999998/17.275",
	}
	pool := NewPool()
	for i, cfg := range pinnedCases() {
		res, err := pool.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := summarize(res); got != want[i] {
			t.Fatalf("case %d:\n got %s\nwant %s", i, got, want[i])
		}
	}
}
