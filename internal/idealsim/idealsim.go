// Package idealsim implements the Section 4 simulator: PBBF on a grid with
// an ideal MAC and physical layer — no collisions, no interference, no
// losses other than sleeping receivers. The paper uses this engine for the
// threshold plots (Figures 4 and 5), the energy verification of Equation 8
// (Figure 8), the hop-stretch plots (Figures 9 and 10), the per-hop latency
// plot (Figure 11), and the trade-off curve (Figure 12).
//
// # Model
//
// Time is divided into beacon intervals (frames) of length Tframe; the
// first Tactive of each frame is the ATIM window, during which every node
// is awake. Whether a node stays awake through the *sleep* portion of frame
// k is an independent coin with bias q, deterministic per (run, node,
// frame) so that reception decisions and energy accounting observe the
// same coin.
//
// A node holding a fresh broadcast either:
//
//   - forwards immediately (probability p): the packet is delivered L1
//     later to each neighbor awake at the send time (awake = inside the
//     ATIM window, or its stay-awake coin for the frame is true); or
//   - forwards normally: it announces the packet in the next ATIM window
//     and the packet is delivered to all neighbors L1 after that window
//     ends.
//
// Nodes drop duplicates, so each broadcast builds a spanning tree rooted at
// the source, exactly the structure the paper's bond-percolation analysis
// assumes.
package idealsim

import (
	"fmt"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/energy"
	"pbbf/internal/rng"
	"pbbf/internal/sim"
	"pbbf/internal/stats"
	"pbbf/internal/topo"
)

// Config parameterizes one ideal-simulator run. Zero values are invalid;
// use Defaults for the paper's Table 1 settings and override as needed.
type Config struct {
	// Topo is the network; the paper uses square grids.
	Topo topo.Topology
	// Source is the broadcast origin (paper: grid center).
	Source topo.NodeID
	// Params are the PBBF knobs.
	Params core.Params
	// Timing is the sleep schedule (Table 1: Tactive=1s, Tframe=10s).
	Timing core.Timing
	// L1 is the channel-access time for a data transmission (Table 1: ≈1.5s).
	L1 time.Duration
	// Lambda is the source's update generation rate in updates/second
	// (Table 1: 0.01).
	Lambda float64
	// Updates is the number of broadcasts the source generates.
	Updates int
	// Profile is the radio power model (Table 1: Mica2).
	Profile energy.Profile
	// TxTime is the on-air time of one data packet, used only for the
	// transmit-energy surcharge (64 B at 19.2 kbps ≈ 26.7 ms).
	TxTime time.Duration
	// TrackHopDistances lists BFS distances from the source at which hop
	// stretch and absolute latency are recorded (Figures 9/10 use 20, 60).
	TrackHopDistances []int
	// ExtendOnReceive, when positive, models a T-MAC-style adaptive sleep
	// schedule (van Dam & Langendoen, cited as [19] in the paper): a node
	// that receives a broadcast stays awake for this long afterwards, so
	// immediate rebroadcasts within the window land regardless of the q
	// coin. Zero reproduces plain 802.11 PSM semantics.
	ExtendOnReceive time.Duration
	// Seed drives all coins in the run.
	Seed uint64
}

// Defaults returns the Table 1 configuration on the given topology,
// leaving Params zero (PSM) for the caller to override.
func Defaults(t topo.Topology, src topo.NodeID) Config {
	return Config{
		Topo:    t,
		Source:  src,
		Timing:  core.Timing{Active: time.Second, Frame: 10 * time.Second},
		L1:      1500 * time.Millisecond,
		Lambda:  0.01,
		Updates: 5,
		Profile: energy.Mica2(),
		TxTime:  (64 * 8 * time.Second) / 19200,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Topo == nil || c.Topo.N() == 0 {
		return fmt.Errorf("idealsim: empty topology")
	}
	if int(c.Source) < 0 || int(c.Source) >= c.Topo.N() {
		return fmt.Errorf("idealsim: source %d outside [0,%d)", c.Source, c.Topo.N())
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.L1 <= 0 {
		return fmt.Errorf("idealsim: L1 %v must be positive", c.L1)
	}
	if c.Lambda <= 0 {
		return fmt.Errorf("idealsim: lambda %v must be positive", c.Lambda)
	}
	if c.Updates <= 0 {
		return fmt.Errorf("idealsim: updates %d must be positive", c.Updates)
	}
	if c.TxTime < 0 {
		return fmt.Errorf("idealsim: TxTime %v negative", c.TxTime)
	}
	if c.ExtendOnReceive < 0 {
		return fmt.Errorf("idealsim: ExtendOnReceive %v negative", c.ExtendOnReceive)
	}
	return nil
}

// Result aggregates the metrics of one run.
type Result struct {
	// Coverage[i] is the fraction of nodes that received update i.
	Coverage []float64
	// PerHopLatency accumulates latency/hops (in seconds) over every
	// (update, receiving node) pair.
	PerHopLatency stats.Accumulator
	// HopsAtDistance maps a tracked BFS distance d to the distribution of
	// dissemination-tree path lengths for nodes at distance d (Figs 9/10).
	HopsAtDistance map[int]*stats.Accumulator
	// LatencyAtDistance maps a tracked BFS distance to absolute update
	// latency in seconds.
	LatencyAtDistance map[int]*stats.Accumulator
	// EnergyPerUpdateJ is the mean per-node energy per generated update.
	EnergyPerUpdateJ float64
	// NodesAtDistance reports how many nodes sit at each tracked distance.
	NodesAtDistance map[int]int
}

// FractionOfUpdatesReceivedBy returns the fraction of updates whose
// coverage reached at least the given fraction of nodes — the y axis of
// Figures 4 and 5.
func (r *Result) FractionOfUpdatesReceivedBy(fraction float64) float64 {
	if len(r.Coverage) == 0 {
		return 0
	}
	hit := 0
	for _, c := range r.Coverage {
		if c >= fraction {
			hit++
		}
	}
	return float64(hit) / float64(len(r.Coverage))
}

// MeanCoverage returns the average per-update coverage (Figure 16's metric
// in the ideal setting).
func (r *Result) MeanCoverage() float64 {
	var acc stats.Accumulator
	for _, c := range r.Coverage {
		acc.Add(c)
	}
	return acc.Mean()
}

// Run executes the simulation and returns its metrics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := newSimulator(cfg)
	return s.run()
}

type nodeState struct {
	received bool
	hops     int
	recvAt   time.Duration
	// wakeUntil is the end of the node's T-MAC-style wake extension
	// within the current update (zero when disabled).
	wakeUntil time.Duration
}

type simulator struct {
	cfg    Config
	kernel *sim.Kernel
	fwdRNG *rng.Source // drives p coins (order-dependent, per run)
	nodes  []nodeState
	sent   []int // transmissions per node across all updates (TX energy)
	// extraAwake accrues T-MAC wake-extension time not already covered by
	// the ATIM window or the q coin (energy accounting).
	extraAwake []time.Duration
	dist       []int // BFS distances from source
	result     *Result
	originT    time.Duration // generation time of the in-flight update
}

func newSimulator(cfg Config) *simulator {
	base := rng.New(cfg.Seed)
	s := &simulator{
		cfg:        cfg,
		fwdRNG:     base.Split(),
		nodes:      make([]nodeState, cfg.Topo.N()),
		sent:       make([]int, cfg.Topo.N()),
		extraAwake: make([]time.Duration, cfg.Topo.N()),
		dist:       topo.HopDistances(cfg.Topo, cfg.Source),
		result: &Result{
			HopsAtDistance:    make(map[int]*stats.Accumulator, len(cfg.TrackHopDistances)),
			LatencyAtDistance: make(map[int]*stats.Accumulator, len(cfg.TrackHopDistances)),
			NodesAtDistance:   make(map[int]int, len(cfg.TrackHopDistances)),
		},
	}
	for _, d := range cfg.TrackHopDistances {
		s.result.HopsAtDistance[d] = &stats.Accumulator{}
		s.result.LatencyAtDistance[d] = &stats.Accumulator{}
		count := 0
		for _, dd := range s.dist {
			if dd == d {
				count++
			}
		}
		s.result.NodesAtDistance[d] = count
	}
	return s
}

// stayAwakeCoin is the deterministic per-(node, frame) q coin. It is a
// pure function of the run seed so that packet delivery and energy
// accounting always agree, regardless of evaluation order.
func (s *simulator) stayAwakeCoin(node topo.NodeID, frame int64) bool {
	if s.cfg.Params.Q <= 0 {
		return false
	}
	if s.cfg.Params.Q >= 1 {
		return true
	}
	mix := s.cfg.Seed ^ uint64(node)*0x9e3779b97f4a7c15 ^ uint64(frame)*0xc2b2ae3d27d4eb4f
	return rng.FirstFloat64(mix) < s.cfg.Params.Q
}

func (s *simulator) frameIndex(t time.Duration) int64 {
	return int64(t / s.cfg.Timing.Frame)
}

// inATIMWindow reports whether t falls in the awake-for-everyone window.
func (s *simulator) inATIMWindow(t time.Duration) bool {
	return t-time.Duration(s.frameIndex(t))*s.cfg.Timing.Frame < s.cfg.Timing.Active
}

// awake reports whether node is listening at time t.
func (s *simulator) awake(node topo.NodeID, t time.Duration) bool {
	if s.inATIMWindow(t) {
		return true
	}
	if s.cfg.ExtendOnReceive > 0 {
		// T-MAC: idle-listen for the timeout after every ATIM window, and
		// for the timeout after the last heard channel activity.
		frameStart := time.Duration(s.frameIndex(t)) * s.cfg.Timing.Frame
		if t < frameStart+s.cfg.Timing.Active+s.cfg.ExtendOnReceive {
			return true
		}
		if t < s.nodes[node].wakeUntil {
			return true
		}
	}
	return s.stayAwakeCoin(node, s.frameIndex(t))
}

// extendWake charges a node's T-MAC wake extension to the energy account
// and records the new wake horizon. Only the portion not already covered
// by a previous extension, the ATIM window, or the node's q coin is
// charged.
func (s *simulator) extendWake(node topo.NodeID, from time.Duration) {
	if s.cfg.ExtendOnReceive <= 0 {
		return
	}
	st := &s.nodes[node]
	until := from + s.cfg.ExtendOnReceive
	start := from
	if st.wakeUntil > start {
		start = st.wakeUntil // already awake through here; charge only the tail
	}
	if until > st.wakeUntil {
		st.wakeUntil = until
	}
	for t := start; t < until; {
		frame := s.frameIndex(t)
		frameStart := time.Duration(frame) * s.cfg.Timing.Frame
		// The ATIM window plus the per-frame base idle-listen timeout are
		// charged by accountEnergy already.
		if freeEnd := frameStart + s.cfg.Timing.Active + s.cfg.ExtendOnReceive; t < freeEnd {
			t = freeEnd
			continue
		}
		segEnd := frameStart + s.cfg.Timing.Frame
		if until < segEnd {
			segEnd = until
		}
		if !s.stayAwakeCoin(node, frame) {
			s.extraAwake[node] += segEnd - t
		}
		t = segEnd
	}
}

// nextNormalDelivery returns the delivery time of a normal broadcast held
// at time t: the packet is announced in the next usable ATIM window and
// transmitted L1 after that window ends.
func (s *simulator) nextNormalDelivery(t time.Duration) time.Duration {
	frame := s.frameIndex(t)
	windowEnd := time.Duration(frame)*s.cfg.Timing.Frame + s.cfg.Timing.Active
	if t >= windowEnd {
		// Missed this frame's window; use the next frame's.
		windowEnd += s.cfg.Timing.Frame
	}
	return windowEnd + s.cfg.L1
}

func (s *simulator) run() (*Result, error) {
	interval := time.Duration(float64(time.Second) / s.cfg.Lambda)
	s.kernel = sim.NewKernel()
	for u := 0; u < s.cfg.Updates; u++ {
		s.originT = time.Duration(u) * interval
		s.kernel.Reset()
		for i := range s.nodes {
			s.nodes[i] = nodeState{}
		}
		s.deliverToSource()
		if err := s.kernel.RunUntilIdle(); err != nil {
			return nil, err
		}
		s.harvestUpdate()
	}
	s.accountEnergy(time.Duration(s.cfg.Updates) * interval)
	return s.result, nil
}

// deliverToSource injects the update at the source. Updates arrive during
// the ATIM window (the paper generates them deterministically on frame
// boundaries), so the source announces in the same window and transmits
// when it ends.
func (s *simulator) deliverToSource() {
	src := s.cfg.Source
	s.nodes[src] = nodeState{received: true, hops: 0, recvAt: s.originT}
	s.kernel.ScheduleAt(s.originT, func() {
		s.transmit(src, s.nextNormalDelivery(s.kernel.Now()), true)
	})
}

// transmit delivers the packet from sender at the given absolute time.
// normal=true means an ATIM-announced broadcast every neighbor wakes for;
// normal=false is an immediate broadcast only awake neighbors catch.
func (s *simulator) transmit(sender topo.NodeID, at time.Duration, normal bool) {
	s.sent[sender]++
	s.kernel.ScheduleAt(at, func() {
		now := s.kernel.Now()
		// For immediate broadcasts the receiver must be listening when the
		// carrier starts (one channel-access time before delivery); nodes
		// that catch the carrier also renew their T-MAC wake timeout.
		carrierStart := now - s.cfg.L1
		if carrierStart < 0 {
			carrierStart = 0
		}
		for _, nb := range s.cfg.Topo.Neighbors(sender) {
			if normal || s.awake(nb, carrierStart) {
				s.extendWake(nb, now)
				s.receive(nb, sender, now)
			}
		}
	})
}

// receive handles first receptions: record metrics and make the Figure 3
// forwarding decision.
func (s *simulator) receive(node, from topo.NodeID, now time.Duration) {
	st := &s.nodes[node]
	if st.received {
		return // duplicate: dropped, not forwarded
	}
	st.received = true
	st.hops = s.nodes[from].hops + 1
	st.recvAt = now
	if s.cfg.Params.ForwardImmediately(s.fwdRNG) {
		s.transmit(node, now+s.cfg.L1, false)
	} else {
		s.transmit(node, s.nextNormalDelivery(now), true)
	}
}

// harvestUpdate folds the finished update's reception state into Result.
func (s *simulator) harvestUpdate() {
	received := 0
	for id := range s.nodes {
		st := &s.nodes[id]
		if !st.received {
			continue
		}
		received++
		if topo.NodeID(id) == s.cfg.Source {
			continue
		}
		latency := (st.recvAt - s.originT).Seconds()
		s.result.PerHopLatency.Add(latency / float64(st.hops))
		if acc, ok := s.result.HopsAtDistance[s.dist[id]]; ok {
			acc.Add(float64(st.hops))
			s.result.LatencyAtDistance[s.dist[id]].Add(latency)
		}
	}
	s.result.Coverage = append(s.result.Coverage, float64(received)/float64(len(s.nodes)))
}

// accountEnergy charges each node for its awake time over the horizon plus
// the transmit surcharge, and normalizes per node per update. The duty
// cycle term reproduces Equation 8; transmissions add (PTX−PI)·TxTime each.
func (s *simulator) accountEnergy(horizon time.Duration) {
	frames := int64(horizon / s.cfg.Timing.Frame)
	if time.Duration(frames)*s.cfg.Timing.Frame < horizon {
		frames++
	}
	var total float64
	sleep := s.cfg.Timing.Sleep()
	// T-MAC base idle-listen timeout, charged every frame the q coin
	// would otherwise sleep through.
	baseExt := s.cfg.ExtendOnReceive
	if baseExt > sleep {
		baseExt = sleep
	}
	for id := range s.nodes {
		var awakeTime, sleepTime time.Duration
		for f := int64(0); f < frames; f++ {
			if s.stayAwakeCoin(topo.NodeID(id), f) {
				awakeTime += s.cfg.Timing.Frame
			} else {
				awakeTime += s.cfg.Timing.Active + baseExt
				sleepTime += sleep - baseExt
			}
		}
		joules := s.cfg.Profile.IdleW*awakeTime.Seconds() +
			s.cfg.Profile.SleepW*sleepTime.Seconds() +
			(s.cfg.Profile.IdleW-s.cfg.Profile.SleepW)*s.extraAwake[id].Seconds() +
			(s.cfg.Profile.TransmitW-s.cfg.Profile.IdleW)*s.cfg.TxTime.Seconds()*float64(s.sent[id])
		total += joules
	}
	s.result.EnergyPerUpdateJ = total / float64(len(s.nodes)) / float64(s.cfg.Updates)
}
