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
//
// # Pooling
//
// A Pool runs configurations one after another on reused state: node
// states, transmission counters, BFS buffers, the event kernel and its
// pre-bound callbacks. A warm run allocates only its Result. Run is
// NewPool().Run, so pooled and one-off runs share one code path and agree
// exactly.
//
// Every delivery is still one kernel event, but pending deliveries wait in
// two FIFOs rather than in the kernel's heap. A normal send is delivered
// L1 after the ATIM window following its send time, an immediate one L1
// after it; both are non-decreasing in the send time, and sends happen in
// time order, so each FIFO is already sorted. Merging the two heads by
// (delivery time, send order) gives exactly the order the kernel's heap
// would, and the kernel holds only the next delivery.
package idealsim

import (
	"fmt"
	"math"
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
	return NewPool().Run(cfg)
}

// Pool owns the per-run state of the ideal simulator so that a sequence of
// runs — a sweep worker's points — reuses it instead of reallocating it.
// Buffers grow to the largest topology seen and are reset per run; a pool
// keeps no reference to a finished run's topology or Result. A Pool is not
// safe for concurrent use; give each worker its own. The zero value is
// ready to use.
type Pool struct {
	cfg    Config
	kernel sim.Kernel
	fwdRNG rng.Source // drives p coins (order-dependent, per run)
	// coin is the stay-awake threshold ⌈q·2^53⌉ (see coinThreshold).
	coin  uint64
	nodes []nodeState
	sent  []int32 // transmissions per node across all updates (TX energy)
	// extraAwake accrues T-MAC wake-extension time not already covered by
	// the ATIM window or the q coin (energy accounting), and wakeUntil is
	// the end of each node's wake extension within the current update.
	// Both are sized only for runs with ExtendOnReceive set.
	extraAwake, wakeUntil []time.Duration
	// dist and queue are the BFS distances from the source and the BFS
	// frontier, computed only for runs that track hop distances.
	dist    []int
	queue   []topo.NodeID
	tracked []trackedDistance
	// normalQ and immediateQ hold the senders whose deliveries are
	// pending, in send order; sends counts the update's sends so far.
	normalQ, immediateQ sendQueue
	sends               int32
	next                *sendQueue // the queue holding the armed delivery
	start, fire         func()     // p.startUpdate and p.deliverNext, bound once
	result              *Result
	originT             time.Duration // generation time of the in-flight update
}

// sendQueue is a FIFO of senders whose deliveries were scheduled in
// non-decreasing time order.
type sendQueue struct {
	ids  []int32
	head int
}

func (q *sendQueue) reset()            { q.ids, q.head = q.ids[:0], 0 }
func (q *sendQueue) empty() bool       { return q.head == len(q.ids) }
func (q *sendQueue) peek() topo.NodeID { return topo.NodeID(q.ids[q.head]) }

// NewPool returns an empty pool; buffers grow to fit on first use.
func NewPool() *Pool { return &Pool{} }

type nodeState struct {
	recvAt time.Duration
	// sendAt and sendSeq are the delivery time and the place in the
	// update's send order of the node's one transmission this update.
	sendAt   time.Duration
	sendSeq  int32
	hops     int32
	received bool
}

// trackedDistance ties one tracked BFS distance to its Result
// accumulators, so harvesting an update needs no map lookups.
type trackedDistance struct {
	d          int
	hops, late *stats.Accumulator
}

// zeroed returns s resized to length n with every element zero, reusing
// its capacity when possible.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Run executes one simulation on the pool's state. The Result is freshly
// allocated and owned by the caller.
func (p *Pool) Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p.reset(cfg)
	res, err := p.run()
	// Drop the run's topology and Result so an idle pool retains neither.
	p.cfg = Config{}
	p.result = nil
	clear(p.tracked)
	p.tracked = p.tracked[:0]
	return res, err
}

// reset prepares the pool's buffers for cfg and allocates its Result.
func (p *Pool) reset(cfg Config) {
	n := cfg.Topo.N()
	p.cfg = cfg
	p.coin = coinThreshold(cfg.Params.Q)
	var base rng.Source
	base.Reseed(cfg.Seed)
	base.SplitInto(&p.fwdRNG)
	p.nodes = zeroed(p.nodes, n)
	p.sent = zeroed(p.sent, n)
	if cfg.ExtendOnReceive > 0 {
		p.extraAwake = zeroed(p.extraAwake, n)
		p.wakeUntil = zeroed(p.wakeUntil, n)
	}
	if p.start == nil {
		p.start, p.fire = p.startUpdate, p.deliverNext
	}
	p.result = &Result{
		Coverage:          make([]float64, 0, cfg.Updates),
		HopsAtDistance:    make(map[int]*stats.Accumulator, len(cfg.TrackHopDistances)),
		LatencyAtDistance: make(map[int]*stats.Accumulator, len(cfg.TrackHopDistances)),
		NodesAtDistance:   make(map[int]int, len(cfg.TrackHopDistances)),
	}
	if len(cfg.TrackHopDistances) > 0 {
		p.dist, p.queue = topo.HopDistancesInto(cfg.Topo, cfg.Source, p.dist, p.queue)
	}
	for _, d := range cfg.TrackHopDistances {
		if _, dup := p.result.HopsAtDistance[d]; dup {
			continue
		}
		tr := trackedDistance{d: d, hops: &stats.Accumulator{}, late: &stats.Accumulator{}}
		p.tracked = append(p.tracked, tr)
		p.result.HopsAtDistance[d] = tr.hops
		p.result.LatencyAtDistance[d] = tr.late
		count := 0
		for _, dd := range p.dist {
			if dd == d {
				count++
			}
		}
		p.result.NodesAtDistance[d] = count
	}
}

// Mix constants of the per-(node, frame) stay-awake coin.
const (
	nodeMix  = 0x9e3779b97f4a7c15
	frameMix = 0xc2b2ae3d27d4eb4f
)

// coinThreshold returns ⌈q·2^53⌉ clamped to [0, 2^53]. For every 53-bit k,
// k < coinThreshold(q) exactly when k/2^53 < q: scaling by 2^53 is exact,
// and k is an integer. So rng.FirstBits53(mix) < coinThreshold(q) is the
// coin rng.FirstFloat64(mix) < q as one integer compare. q ≤ 0 (and NaN)
// gives 0, which no k is below; q ≥ 1 gives 2^53, which every k is below.
func coinThreshold(q float64) uint64 {
	switch {
	case !(q > 0):
		return 0
	case q >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(q * (1 << 53)))
}

// stayAwakeCoin is the deterministic per-(node, frame) q coin. It is a
// pure function of the run seed so that packet delivery and energy
// accounting always agree, regardless of evaluation order.
func (p *Pool) stayAwakeCoin(node topo.NodeID, frame int64) bool {
	mix := p.cfg.Seed ^ uint64(node)*nodeMix ^ uint64(frame)*frameMix
	return rng.FirstBits53(mix) < p.coin
}

// awakeFrames counts the frames in [0, frames) whose stay-awake coin keeps
// node awake: stayAwakeCoin per frame, with the frame term of the mix
// advanced by one addition per frame instead of a multiplication. The
// q = 0 and q = 1 thresholds decide every coin without drawing it.
func (p *Pool) awakeFrames(node topo.NodeID, frames int64) int64 {
	switch p.coin {
	case 0:
		return 0
	case 1 << 53:
		return frames
	}
	mix := p.cfg.Seed ^ uint64(node)*nodeMix
	var awake uint64
	var frameTerm uint64
	for f := int64(0); f < frames; f++ {
		// Both operands are below 2^63, so the difference wraps, setting
		// the top bit, exactly when the coin is heads: a count with no
		// branch to mispredict.
		awake += (rng.FirstBits53(mix^frameTerm) - p.coin) >> 63
		frameTerm += frameMix
	}
	return int64(awake)
}

func (p *Pool) frameIndex(t time.Duration) int64 {
	return int64(t / p.cfg.Timing.Frame)
}

// inATIMWindow reports whether t falls in the awake-for-everyone window.
func (p *Pool) inATIMWindow(t time.Duration) bool {
	return t-time.Duration(p.frameIndex(t))*p.cfg.Timing.Frame < p.cfg.Timing.Active
}

// awake reports whether node is listening at time t.
func (p *Pool) awake(node topo.NodeID, t time.Duration) bool {
	if p.inATIMWindow(t) {
		return true
	}
	if p.cfg.ExtendOnReceive > 0 {
		// T-MAC: idle-listen for the timeout after every ATIM window, and
		// for the timeout after the last heard channel activity.
		frameStart := time.Duration(p.frameIndex(t)) * p.cfg.Timing.Frame
		if t < frameStart+p.cfg.Timing.Active+p.cfg.ExtendOnReceive {
			return true
		}
		if t < p.wakeUntil[node] {
			return true
		}
	}
	return p.stayAwakeCoin(node, p.frameIndex(t))
}

// extendWake charges a node's T-MAC wake extension to the energy account
// and records the new wake horizon. Only the portion not already covered
// by a previous extension, the ATIM window, or the node's q coin is
// charged.
func (p *Pool) extendWake(node topo.NodeID, from time.Duration) {
	if p.cfg.ExtendOnReceive <= 0 {
		return
	}
	wakeUntil := &p.wakeUntil[node]
	until := from + p.cfg.ExtendOnReceive
	start := from
	if *wakeUntil > start {
		start = *wakeUntil // already awake through here; charge only the tail
	}
	if until > *wakeUntil {
		*wakeUntil = until
	}
	for t := start; t < until; {
		frame := p.frameIndex(t)
		frameStart := time.Duration(frame) * p.cfg.Timing.Frame
		// The ATIM window plus the per-frame base idle-listen timeout are
		// charged by accountEnergy already.
		if freeEnd := frameStart + p.cfg.Timing.Active + p.cfg.ExtendOnReceive; t < freeEnd {
			t = freeEnd
			continue
		}
		segEnd := frameStart + p.cfg.Timing.Frame
		if until < segEnd {
			segEnd = until
		}
		if !p.stayAwakeCoin(node, frame) {
			p.extraAwake[node] += segEnd - t
		}
		t = segEnd
	}
}

// nextNormalDelivery returns the delivery time of a normal broadcast held
// at time t: the packet is announced in the next usable ATIM window and
// transmitted L1 after that window ends.
func (p *Pool) nextNormalDelivery(t time.Duration) time.Duration {
	frame := p.frameIndex(t)
	windowEnd := time.Duration(frame)*p.cfg.Timing.Frame + p.cfg.Timing.Active
	if t >= windowEnd {
		// Missed this frame's window; use the next frame's.
		windowEnd += p.cfg.Timing.Frame
	}
	return windowEnd + p.cfg.L1
}

func (p *Pool) run() (*Result, error) {
	interval := time.Duration(float64(time.Second) / p.cfg.Lambda)
	for u := 0; u < p.cfg.Updates; u++ {
		p.originT = time.Duration(u) * interval
		p.kernel.Reset()
		clear(p.nodes)
		if p.cfg.ExtendOnReceive > 0 {
			clear(p.wakeUntil)
		}
		p.normalQ.reset()
		p.immediateQ.reset()
		p.sends = 0
		p.deliverToSource()
		if err := p.kernel.RunUntilIdle(); err != nil {
			return nil, err
		}
		p.harvestUpdate()
	}
	p.accountEnergy(time.Duration(p.cfg.Updates) * interval)
	return p.result, nil
}

// deliverToSource injects the update at the source. Updates arrive during
// the ATIM window (the paper generates them deterministically on frame
// boundaries), so the source announces in the same window and transmits
// when it ends.
func (p *Pool) deliverToSource() {
	p.nodes[p.cfg.Source] = nodeState{received: true, recvAt: p.originT}
	p.kernel.ScheduleAt(p.originT, p.start)
}

// startUpdate is the source's send, fired at the update's origin time.
func (p *Pool) startUpdate() {
	p.transmit(p.cfg.Source, p.nextNormalDelivery(p.kernel.Now()), true)
	p.armNext()
}

// transmit queues sender's broadcast for delivery at the given absolute
// time. normal=true means an ATIM-announced broadcast every neighbor
// wakes for; normal=false is an immediate broadcast only awake neighbors
// catch.
func (p *Pool) transmit(sender topo.NodeID, at time.Duration, normal bool) {
	p.sent[sender]++
	st := &p.nodes[sender]
	st.sendAt, st.sendSeq = at, p.sends
	p.sends++
	q := &p.immediateQ
	if normal {
		q = &p.normalQ
	}
	q.ids = append(q.ids, int32(sender))
}

// armNext schedules the earliest pending delivery, if any, as the
// kernel's next event. Every send happens inside a kernel callback that
// ends with armNext, so the armed delivery stays the earliest until it
// fires.
func (p *Pool) armNext() {
	n, i := &p.normalQ, &p.immediateQ
	switch {
	case i.empty():
		if n.empty() {
			return
		}
		p.next = n
	case n.empty():
		p.next = i
	default:
		a, b := &p.nodes[n.peek()], &p.nodes[i.peek()]
		p.next = n
		if b.sendAt < a.sendAt || (b.sendAt == a.sendAt && b.sendSeq < a.sendSeq) {
			p.next = i
		}
	}
	p.kernel.ScheduleAt(p.nodes[p.next.peek()].sendAt, p.fire)
}

// deliverNext fires the armed delivery and arms the one after it.
func (p *Pool) deliverNext() {
	q := p.next
	sender := q.peek()
	q.head++
	p.deliverFrom(sender, q == &p.normalQ)
	p.armNext()
}

// deliverFrom hands sender's broadcast to its neighbors.
func (p *Pool) deliverFrom(sender topo.NodeID, normal bool) {
	now := p.kernel.Now()
	// For immediate broadcasts the receiver must be listening when the
	// carrier starts (one channel-access time before delivery); nodes
	// that catch the carrier also renew their T-MAC wake timeout.
	carrierStart := now - p.cfg.L1
	if carrierStart < 0 {
		carrierStart = 0
	}
	for _, nb := range p.cfg.Topo.Neighbors(sender) {
		if normal || p.awake(nb, carrierStart) {
			p.extendWake(nb, now)
			p.receive(nb, sender, now)
		}
	}
}

// receive handles first receptions: record metrics and make the Figure 3
// forwarding decision.
func (p *Pool) receive(node, from topo.NodeID, now time.Duration) {
	st := &p.nodes[node]
	if st.received {
		return // duplicate: dropped, not forwarded
	}
	st.received = true
	st.hops = p.nodes[from].hops + 1
	st.recvAt = now
	if p.cfg.Params.ForwardImmediately(&p.fwdRNG) {
		p.transmit(node, now+p.cfg.L1, false)
	} else {
		p.transmit(node, p.nextNormalDelivery(now), true)
	}
}

// harvestUpdate folds the finished update's reception state into Result.
func (p *Pool) harvestUpdate() {
	received := 0
	for id := range p.nodes {
		st := &p.nodes[id]
		if !st.received {
			continue
		}
		received++
		if topo.NodeID(id) == p.cfg.Source {
			continue
		}
		latency := (st.recvAt - p.originT).Seconds()
		p.result.PerHopLatency.Add(latency / float64(st.hops))
		for _, tr := range p.tracked {
			if tr.d == p.dist[id] {
				tr.hops.Add(float64(st.hops))
				tr.late.Add(latency)
				break
			}
		}
	}
	p.result.Coverage = append(p.result.Coverage, float64(received)/float64(len(p.nodes)))
}

// accountEnergy charges each node for its awake time over the horizon plus
// the transmit surcharge, and normalizes per node per update. The duty
// cycle term reproduces Equation 8; transmissions add (PTX−PI)·TxTime each.
func (p *Pool) accountEnergy(horizon time.Duration) {
	frames := int64(horizon / p.cfg.Timing.Frame)
	if time.Duration(frames)*p.cfg.Timing.Frame < horizon {
		frames++
	}
	var total float64
	prof := p.cfg.Profile
	for id := range p.nodes {
		awakeTime, sleepTime := p.nodeTimes(topo.NodeID(id), frames)
		var extra time.Duration
		if p.cfg.ExtendOnReceive > 0 {
			extra = p.extraAwake[id]
		}
		joules := prof.IdleW*awakeTime.Seconds() +
			prof.SleepW*sleepTime.Seconds() +
			(prof.IdleW-prof.SleepW)*extra.Seconds() +
			(prof.TransmitW-prof.IdleW)*p.cfg.TxTime.Seconds()*float64(p.sent[id])
		total += joules
	}
	p.result.EnergyPerUpdateJ = total / float64(len(p.nodes)) / float64(p.cfg.Updates)
}

// nodeTimes splits node's first frames frames into awake and asleep time
// by its stay-awake coins. A frame the coin keeps awake costs Tframe
// awake; any other frame costs the ATIM window plus the T-MAC base
// idle-listen timeout (charged every frame the q coin would otherwise
// sleep through) awake, and the rest asleep. Extension time beyond the
// base timeout is charged separately, from extraAwake.
func (p *Pool) nodeTimes(node topo.NodeID, frames int64) (awake, asleep time.Duration) {
	timing := p.cfg.Timing
	sleep := timing.Sleep()
	baseExt := min(p.cfg.ExtendOnReceive, sleep)
	awakeFrames := p.awakeFrames(node, frames)
	sleepFrames := time.Duration(frames - awakeFrames)
	return time.Duration(awakeFrames)*timing.Frame + sleepFrames*(timing.Active+baseExt),
		sleepFrames * (sleep - baseExt)
}
