package mac

import (
	"testing"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/phy"
	"pbbf/internal/raceflag"
	"pbbf/internal/rng"
	"pbbf/internal/sim"
	"pbbf/internal/topo"
)

// TestFleetSteadyStateZeroAlloc pins the MAC hot path to zero allocations:
// after one warm-up run, repeating a full simulated run — fleet reset,
// per-node reinitialization, a broadcast, and the complete frame/ATIM
// beacon schedule, driven by Fleet.StartFrame and Fleet.EndATIMWindow — on
// the same pooled state must not allocate at all. The frame tick and
// ATIM-window closures are bound once outside the measured loop, exactly as
// netsim.RunPool binds them, so anything this test counts
// is an allocation a pooled simulation would pay per run. The "deaths"
// input kills most of the fleet late in every run, as churn and battery
// depletion do: a dead node must keep its queues' capacity for the next
// run on the pool.
func TestFleetSteadyStateZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race detector instrumentation allocates")
	}
	for _, tc := range []struct {
		name   string
		deaths bool
	}{{"clean", false}, {"deaths", true}} {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := steadyStateRunAllocs(t, tc.deaths); allocs > 0 {
				t.Fatalf("steady-state MAC run allocated %v times, want 0", allocs)
			}
		})
	}
}

// steadyStateRunAllocs measures the allocations of one warm pooled MAC run
// on a 4x4 grid; with deaths, every node but the source is killed at 4.9 s,
// after the broadcast has spread and filled their queues.
func steadyStateRunAllocs(t *testing.T, deaths bool) float64 {
	g := topo.MustGrid(4, 4)
	cfg := DefaultConfig(core.Params{P: 0.5, Q: 0.5})
	kernel := sim.NewKernel()
	channel := phy.NewChannel(kernel, g)
	fleet := NewFleet()
	base := rng.New(7)
	deliver := func(Packet, topo.NodeID, time.Duration) {}
	var tick func()
	endWindow := func() { fleet.EndATIMWindow(kernel.Now()) }
	tick = func() {
		fleet.StartFrame(kernel.Now())
		kernel.Schedule(cfg.Timing.Active, endWindow)
		kernel.Schedule(cfg.Timing.Frame, tick)
	}
	killAll := func() {
		for _, n := range fleet.Nodes()[1:] {
			n.Kill()
		}
	}
	var seq uint64
	runOnce := func() {
		kernel.Reset()
		channel.Reset(g)
		base.Reseed(7)
		fleet.Reset(g.N(), cfg.Profile, kernel.Now())
		for i := 0; i < g.N(); i++ {
			if err := fleet.InitNode(i, topo.NodeID(i), cfg, kernel, channel, base, deliver); err != nil {
				t.Fatal(err)
			}
		}
		seq++
		fleet.Node(0).Broadcast(Packet{Key: core.PacketKey{Origin: 0, Seq: seq}})
		kernel.ScheduleAt(0, tick)
		if deaths {
			kernel.ScheduleAt(4900*time.Millisecond, killAll)
		}
		if err := kernel.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	runOnce() // warm the slabs, queues, and per-node buffers
	runOnce() // settle any second-run growth (e.g. heap doubling)
	return testing.AllocsPerRun(5, runOnce)
}
