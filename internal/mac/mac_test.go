package mac

import (
	"testing"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/energy"
	"pbbf/internal/phy"
	"pbbf/internal/protocol"
	"pbbf/internal/rng"
	"pbbf/internal/sim"
	"pbbf/internal/topo"
)

// harness wires a grid of MAC nodes, one Fleet, to a channel and drives the
// beacon schedule, recording application deliveries.
type harness struct {
	t       *testing.T
	cfg     Config
	kernel  *sim.Kernel
	channel *phy.Channel
	fleet   *Fleet
	nodes   []*Node
	// got[node] lists (packet, time) deliveries.
	got [][]delivered
}

type delivered struct {
	pkt Packet
	at  time.Duration
}

func newHarness(t *testing.T, w, h int, cfg Config, seed uint64) *harness {
	t.Helper()
	g := topo.MustGrid(w, h)
	hn := &harness{
		t:      t,
		kernel: sim.NewKernel(),
		fleet:  NewFleet(),
		got:    make([][]delivered, g.N()),
	}
	hn.channel = phy.NewChannel(hn.kernel, g)
	hn.fleet.Reset(g.N(), cfg.Profile, hn.kernel.Now())
	base := rng.New(seed)
	for i := 0; i < g.N(); i++ {
		i := i
		err := hn.fleet.InitNode(i, topo.NodeID(i), cfg, hn.kernel, hn.channel, base,
			func(pkt Packet, _ topo.NodeID, now time.Duration) {
				hn.got[i] = append(hn.got[i], delivered{pkt: pkt, at: now})
			})
		if err != nil {
			t.Fatal(err)
		}
	}
	hn.nodes = hn.fleet.Nodes()
	hn.cfg = cfg
	return hn
}

// run schedules the beacon ticks and executes the simulation. It is called
// after the test has scheduled its application events, so that (as in
// netsim) application events at a frame boundary precede the frame snapshot.
func (h *harness) run(d time.Duration) {
	h.t.Helper()
	var tick func()
	tick = func() {
		h.fleet.StartFrame(h.kernel.Now())
		h.kernel.Schedule(h.cfg.Timing.Active, func() {
			h.fleet.EndATIMWindow(h.kernel.Now())
		})
		h.kernel.Schedule(h.cfg.Timing.Frame, tick)
	}
	h.kernel.ScheduleAt(0, tick)
	if err := h.kernel.Run(d); err != nil {
		h.t.Fatal(err)
	}
}

func (h *harness) receivedCount() int {
	total := 0
	for _, g := range h.got {
		total += len(g)
	}
	return total
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig(core.PSM()).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Timing.Active = 0 },
		func(c *Config) { c.Params.P = -1 },
		func(c *Config) { c.BitrateBps = 0 },
		func(c *Config) { c.DataFrameBytes = 0 },
		func(c *Config) { c.ATIMFrameBytes = 0 },
		func(c *Config) { c.Slot = 0 },
		func(c *Config) { c.CWSlots = 0 },
		func(c *Config) { c.DIFS = -time.Second },
		// ATIM frame longer than the window.
		func(c *Config) { c.ATIMFrameBytes = 1 << 20 },
		// Unknown protocol and bad protocol knobs.
		func(c *Config) { c.Protocol.Name = "flooding" },
		func(c *Config) { c.Protocol = protocol.Spec{Name: protocol.NameSleepSched, WakePeriod: -1} },
		// Adaptive control tunes the PBBF coins; rival protocols have none.
		func(c *Config) {
			c.Protocol = protocol.Spec{Name: protocol.NameOLA, Adaptive: &protocol.AdaptiveConfig{}}
		},
		// Bad battery budgets.
		func(c *Config) { c.Energy = energy.Budget{CapacityJ: -1} },
		func(c *Config) { c.Energy = energy.Budget{HarvestW: 0.01} },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig(core.PSM())
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
}

func TestAirtimes(t *testing.T) {
	cfg := DefaultConfig(core.PSM())
	// 64 B at 19.2 kbps = 26.66 ms.
	if got := cfg.DataAirtime(); got < 26*time.Millisecond || got > 27*time.Millisecond {
		t.Fatalf("data airtime = %v", got)
	}
	if got := cfg.ATIMAirtime(); got >= cfg.DataAirtime() {
		t.Fatalf("ATIM airtime %v not shorter than data %v", got, cfg.DataAirtime())
	}
}

func TestNewNodeRejectsNilDelivery(t *testing.T) {
	g := topo.MustGrid(2, 1)
	k := sim.NewKernel()
	c := phy.NewChannel(k, g)
	cfg := DefaultConfig(core.PSM())
	f := NewFleet()
	f.Reset(g.N(), cfg.Profile, k.Now())
	if err := f.InitNode(0, 0, cfg, k, c, rng.New(1), nil); err == nil {
		t.Fatal("nil delivery accepted")
	}
}

func TestPSMBroadcastReachesAllInOneBeacon(t *testing.T) {
	// 2×1 grid: source announces at frame 0, data right after the window.
	cfg := DefaultConfig(core.PSM())
	h := newHarness(t, 2, 1, cfg, 1)
	h.kernel.ScheduleAt(0, func() {
		h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, 0), Payload: "update"})
	})
	h.run(cfg.Timing.Frame)
	if len(h.got[1]) != 1 {
		t.Fatalf("node 1 deliveries = %v", h.got[1])
	}
	d := h.got[1][0]
	// Delivery must land after the ATIM window but within the first BI.
	if d.at < cfg.Timing.Active || d.at > cfg.Timing.Frame {
		t.Fatalf("delivery at %v, want within (AW, BI)", d.at)
	}
	if d.pkt.Hops != 1 {
		t.Fatalf("hops = %d, want 1", d.pkt.Hops)
	}
	if d.pkt.Payload != "update" {
		t.Fatalf("payload = %v", d.pkt.Payload)
	}
}

func TestPSMMultiHopTakesOneBeaconPerHop(t *testing.T) {
	cfg := DefaultConfig(core.PSM())
	h := newHarness(t, 4, 1, cfg, 2)
	h.kernel.ScheduleAt(0, func() {
		h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, 0)})
	})
	h.run(5 * cfg.Timing.Frame)
	for hop := 1; hop <= 3; hop++ {
		if len(h.got[hop]) != 1 {
			t.Fatalf("node %d deliveries = %d", hop, len(h.got[hop]))
		}
		at := h.got[hop][0].at
		lo := time.Duration(hop-1)*cfg.Timing.Frame + cfg.Timing.Active
		hi := time.Duration(hop) * cfg.Timing.Frame
		if at < lo || at > hi {
			t.Fatalf("hop %d delivered at %v, want in [%v, %v]", hop, at, lo, hi)
		}
	}
}

func TestPSMFullCoverageOnGrid(t *testing.T) {
	cfg := DefaultConfig(core.PSM())
	h := newHarness(t, 5, 5, cfg, 3)
	h.kernel.ScheduleAt(0, func() {
		h.nodes[12].Broadcast(Packet{Key: PacketKeyFor(12, 0)})
	})
	h.run(15 * cfg.Timing.Frame)
	for i := range h.got {
		if i == 12 {
			continue
		}
		if len(h.got[i]) != 1 {
			t.Fatalf("node %d received %d copies (app-level), want exactly 1", i, len(h.got[i]))
		}
	}
}

func TestDuplicatesSuppressed(t *testing.T) {
	// On a 3×3 grid, interior nodes hear several rebroadcasts but the app
	// sees each packet once; the MAC counts the duplicates.
	cfg := DefaultConfig(core.PSM())
	h := newHarness(t, 3, 3, cfg, 4)
	h.kernel.ScheduleAt(0, func() {
		h.nodes[4].Broadcast(Packet{Key: PacketKeyFor(4, 0)})
	})
	h.run(10 * cfg.Timing.Frame)
	dups := 0
	for _, n := range h.nodes {
		dups += n.Stats().Duplicates
	}
	if dups == 0 {
		t.Fatal("no duplicates recorded on a dense grid")
	}
}

// TestSecondOriginPanics: a run has one broadcast origin, which is what
// lets every protocol index its per-packet state by seq; a node that sees
// a second origin's broadcast fails loudly.
func TestSecondOriginPanics(t *testing.T) {
	cfg := DefaultConfig(core.PSM())
	h := newHarness(t, 3, 1, cfg, 4)
	h.kernel.ScheduleAt(0, func() {
		h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, 0)})
		h.nodes[2].Broadcast(Packet{Key: PacketKeyFor(2, 0)})
	})
	defer func() {
		if recover() == nil {
			t.Fatal("a run with two broadcast origins did not panic")
		}
	}()
	h.run(3 * cfg.Timing.Frame)
}

func TestAlwaysOnImmediateDelivery(t *testing.T) {
	// p=1, q=1: forwarding never waits for a beacon; the whole 4-node line
	// is covered within the first beacon interval.
	cfg := DefaultConfig(core.AlwaysOn())
	h := newHarness(t, 4, 1, cfg, 5)
	h.kernel.ScheduleAt(0, func() {
		h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, 0)})
	})
	h.run(cfg.Timing.Frame)
	for i := 1; i < 4; i++ {
		if len(h.got[i]) != 1 {
			t.Fatalf("node %d not covered in first BI under always-on", i)
		}
	}
	last := h.got[3][0].at
	if last > cfg.Timing.Active+time.Second {
		t.Fatalf("3-hop always-on delivery at %v, want shortly after the window", last)
	}
}

func TestImmediateBroadcastMissesSleepers(t *testing.T) {
	// p=1, q=0: the source's immediate data goes out right after the ATIM
	// window with no announcement, so every neighbor is asleep and the
	// broadcast dies at hop 1. (The source had no prior traffic, so no
	// node stayed awake.)
	cfg := DefaultConfig(core.Params{P: 1, Q: 0})
	h := newHarness(t, 3, 1, cfg, 6)
	h.kernel.ScheduleAt(cfg.Timing.Active+time.Second, func() {
		// Originate mid-sleep-period: immediate send, everyone asleep.
		h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, 0)})
	})
	h.run(3 * cfg.Timing.Frame)
	if h.receivedCount() != 0 {
		t.Fatalf("sleeping neighbors received an unannounced broadcast: %d", h.receivedCount())
	}
}

func TestQKeepsReceiversAwake(t *testing.T) {
	// p=1, q=1: neighbors stay awake through the sleep period and catch
	// the unannounced immediate broadcast.
	cfg := DefaultConfig(core.Params{P: 1, Q: 1})
	h := newHarness(t, 3, 1, cfg, 7)
	h.kernel.ScheduleAt(cfg.Timing.Active+time.Second, func() {
		h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, 0)})
	})
	h.run(2 * cfg.Timing.Frame)
	if len(h.got[1]) != 1 || len(h.got[2]) != 1 {
		t.Fatalf("awake neighbors missed immediate broadcast: %d/%d",
			len(h.got[1]), len(h.got[2]))
	}
}

func TestEnergyOrdering(t *testing.T) {
	// Over several beacons with no traffic: PSM sleeps 90% of the time,
	// q=0.5 about half the sleep periods, always-on never.
	run := func(params core.Params, seed uint64) float64 {
		cfg := DefaultConfig(params)
		h := newHarness(t, 3, 3, cfg, seed)
		h.run(20 * cfg.Timing.Frame)
		var total float64
		for _, n := range h.nodes {
			n.FinishMetering(h.kernel.Now())
			total += n.EnergyAt(h.kernel.Now())
		}
		return total
	}
	psm := run(core.PSM(), 8)
	mid := run(core.Params{P: 0.5, Q: 0.5}, 8)
	on := run(core.AlwaysOn(), 8)
	if !(psm < mid && mid < on) {
		t.Fatalf("energy ordering violated: PSM=%v mid=%v on=%v", psm, mid, on)
	}
	// PSM duty cycle is 10%: expect roughly 10x less than always-on.
	if psm > on*0.2 {
		t.Fatalf("PSM energy %v too close to always-on %v", psm, on)
	}
}

func TestStayAwakeStatIncrements(t *testing.T) {
	cfg := DefaultConfig(core.Params{P: 0, Q: 1})
	h := newHarness(t, 2, 1, cfg, 9)
	h.run(5 * cfg.Timing.Frame)
	if h.nodes[0].Stats().StayAwakeWins == 0 {
		t.Fatal("q=1 never won a stay-awake coin")
	}
}

func TestATIMWindowBlocksData(t *testing.T) {
	// An immediate broadcast originated during the ATIM window must not
	// hit the air until the window ends.
	cfg := DefaultConfig(core.Params{P: 1, Q: 1})
	h := newHarness(t, 2, 1, cfg, 10)
	h.kernel.ScheduleAt(10*time.Millisecond, func() {
		h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, 0)})
	})
	h.run(cfg.Timing.Frame)
	if len(h.got[1]) != 1 {
		t.Fatalf("delivery count = %d", len(h.got[1]))
	}
	if at := h.got[1][0].at; at < cfg.Timing.Active {
		t.Fatalf("data delivered during ATIM window at %v", at)
	}
}

func TestHopsIncrement(t *testing.T) {
	cfg := DefaultConfig(core.PSM())
	h := newHarness(t, 3, 1, cfg, 11)
	h.kernel.ScheduleAt(0, func() {
		h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, 0)})
	})
	h.run(4 * cfg.Timing.Frame)
	if h.got[1][0].pkt.Hops != 1 {
		t.Fatalf("1-hop packet hops = %d", h.got[1][0].pkt.Hops)
	}
	if h.got[2][0].pkt.Hops != 2 {
		t.Fatalf("2-hop packet hops = %d", h.got[2][0].pkt.Hops)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (int, float64) {
		cfg := DefaultConfig(core.Params{P: 0.5, Q: 0.5})
		h := newHarness(t, 4, 4, cfg, 42)
		h.kernel.ScheduleAt(0, func() {
			h.nodes[5].Broadcast(Packet{Key: PacketKeyFor(5, 0)})
		})
		h.run(10 * cfg.Timing.Frame)
		var e float64
		for _, n := range h.nodes {
			e += n.EnergyAt(h.kernel.Now())
		}
		return h.receivedCount(), e
	}
	c1, e1 := run()
	c2, e2 := run()
	if c1 != c2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", c1, e1, c2, e2)
	}
}

func TestMeterStatesTracked(t *testing.T) {
	cfg := DefaultConfig(core.PSM())
	h := newHarness(t, 2, 1, cfg, 12)
	h.kernel.ScheduleAt(0, func() {
		h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, 0)})
	})
	h.run(3 * cfg.Timing.Frame)
	h.nodes[0].FinishMetering(h.kernel.Now())
	if h.nodes[0].TimeIn(energy.Transmit) == 0 {
		t.Fatal("transmitter recorded no TX time")
	}
	if h.nodes[0].TimeIn(energy.Sleep) == 0 {
		t.Fatal("PSM node recorded no sleep time")
	}
	if h.nodes[0].TimeIn(energy.Idle) == 0 {
		t.Fatal("node recorded no idle time")
	}
}
