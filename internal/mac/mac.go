// Package mac implements the fine-grained MAC layer of the Section 5
// simulations: IEEE 802.11 power-save mode (PSM) with ATIM windows and
// CSMA/CA channel access. It is the substrate only: every forwarding and
// sleeping decision dispatches through a protocol.Protocol (Config.Protocol),
// and the default, PBBF, makes them exactly as in Figure 3.
//
// # Protocol model
//
// Time is divided into beacon intervals (BI = Tframe); nodes are perfectly
// synchronized (the paper assumes this too). The first Tactive of each BI
// is the ATIM window, during which every node is awake and data frames may
// not be sent. A node with queued broadcast traffic transmits a broadcast
// ATIM during the window; every node that decodes the ATIM stays awake for
// the whole beacon interval to receive the announced data, which is
// transmitted after the window ends (Figure 1 of the paper).
//
// PBBF (internal/protocol) modifies two decisions (Figure 3):
//
//   - Sleep-Decision-Handler: at the end of the ATIM window a node with no
//     traffic stays awake anyway with probability q.
//   - Receive-Broadcast: a node receiving a new broadcast data frame
//     rebroadcasts it immediately with probability p (CSMA, no ATIM, even
//     during the sleep period); otherwise it queues the packet for
//     announcement in the next ATIM window.
//
// # Channel access
//
// Broadcast frames use carrier sense with a DIFS and a uniform random
// backoff drawn from a fixed contention window; there are no ACKs, RTS/CTS,
// or retransmissions for broadcasts, matching 802.11 broadcast semantics.
// Backoff freezing is simplified to re-contention: if the medium is busy
// when the backoff expires, the node re-draws a backoff. Collisions emerge
// naturally when two nodes draw overlapping slots or are hidden from each
// other.
package mac

import (
	"fmt"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/energy"
	"pbbf/internal/phy"
	"pbbf/internal/protocol"
	"pbbf/internal/rng"
	"pbbf/internal/sim"
	"pbbf/internal/topo"
	"pbbf/internal/trace"
)

// Config parameterizes the MAC.
type Config struct {
	// Timing is the PSM schedule: Active = ATIM window, Frame = beacon
	// interval (Table 1: 1 s / 10 s).
	Timing core.Timing
	// Params are the PBBF knobs.
	Params core.Params
	// BitrateBps is the radio bit rate (Section 5: 19.2 kbps).
	BitrateBps int
	// DataFrameBytes is the total size of one data frame (Table 2: 64 B).
	DataFrameBytes int
	// ATIMFrameBytes is the size of an ATIM announcement frame.
	ATIMFrameBytes int
	// DIFS is the inter-frame space sensed idle before backoff.
	DIFS time.Duration
	// Slot is the backoff slot duration.
	Slot time.Duration
	// CWSlots is the contention window: backoff is uniform in [0, CWSlots).
	CWSlots int
	// Profile is the radio power model.
	Profile energy.Profile
	// Energy, when finite, bounds the node's battery: CapacityJ joules at
	// t=0, drained by Profile's draw, optionally harvested back (clamped at
	// capacity), and fail-stop death on depletion, which the MAC polls at
	// beacon starts, ATIM window ends, and transmission completions. The
	// zero value is the paper's infinite battery and changes nothing.
	Energy energy.Budget
	// Protocol selects the broadcast protocol the node's decisions
	// dispatch through (internal/protocol). The zero value is PBBF — the
	// paper's protocol, byte-identical to the pre-interface MAC.
	Protocol protocol.Spec
	// Trace, when non-nil, receives the node's event stream (tx/rx,
	// sleep/wake, energy transitions, death). Recording is pure
	// observation: it draws no randomness and changes no decision, so a
	// traced run computes byte-identical results to an untraced one.
	// netsim also feeds it the channel's drop events, and a nil sink adds
	// no allocations to the hot path.
	Trace trace.Sink
}

// DefaultConfig returns the Section 5 parameters (Tables 1 and 2) with the
// given PBBF knobs.
func DefaultConfig(params core.Params) Config {
	return Config{
		Timing:         core.Timing{Active: time.Second, Frame: 10 * time.Second},
		Params:         params,
		BitrateBps:     19200,
		DataFrameBytes: 64,
		ATIMFrameBytes: 28,
		DIFS:           5 * time.Millisecond,
		Slot:           time.Millisecond,
		CWSlots:        32,
		Profile:        energy.Mica2(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.BitrateBps <= 0 {
		return fmt.Errorf("mac: bitrate %d must be positive", c.BitrateBps)
	}
	if c.DataFrameBytes <= 0 || c.ATIMFrameBytes <= 0 {
		return fmt.Errorf("mac: frame sizes must be positive, got data=%d atim=%d",
			c.DataFrameBytes, c.ATIMFrameBytes)
	}
	if c.DIFS < 0 || c.Slot <= 0 || c.CWSlots <= 0 {
		return fmt.Errorf("mac: bad contention parameters DIFS=%v slot=%v cw=%d",
			c.DIFS, c.Slot, c.CWSlots)
	}
	if c.ATIMAirtime() >= c.Timing.Active {
		return fmt.Errorf("mac: ATIM airtime %v does not fit the ATIM window %v",
			c.ATIMAirtime(), c.Timing.Active)
	}
	if err := c.Energy.Validate(); err != nil {
		return fmt.Errorf("mac: %w", err)
	}
	return c.Protocol.Validate()
}

// airtime converts a frame size to on-air time at the configured bit rate.
func (c Config) airtime(bytes int) time.Duration {
	return time.Duration(float64(bytes*8) / float64(c.BitrateBps) * float64(time.Second))
}

// DataAirtime returns the on-air time of a data frame (64 B at 19.2 kbps ≈
// 26.7 ms).
func (c Config) DataAirtime() time.Duration { return c.airtime(c.DataFrameBytes) }

// ATIMAirtime returns the on-air time of an ATIM frame.
func (c Config) ATIMAirtime() time.Duration { return c.airtime(c.ATIMFrameBytes) }

// PacketKeyFor builds the duplicate-suppression key for a broadcast
// originated by the given node with an origin-local sequence number.
func PacketKeyFor(origin topo.NodeID, seq uint64) core.PacketKey {
	return core.PacketKey{Origin: int(origin), Seq: seq}
}

// Packet is a broadcast MAC SDU — an alias of protocol.Packet, so packets
// cross the MAC/protocol boundary without conversion.
type Packet = protocol.Packet

// frameKind discriminates the two on-air frame types.
type frameKind int

const (
	frameATIM frameKind = iota + 1
	frameData
)

// wire is the channel payload. Frames travel as *wire so that putting one
// on the air boxes a pointer (allocation-free) instead of copying the
// struct into the interface; the transmitting node owns the record and
// recycles it once the frame leaves the air.
type wire struct {
	kind frameKind
	pkt  Packet // valid for frameData only
}

// DeliveryFunc is the application upcall, invoked once per *new* packet.
type DeliveryFunc func(pkt Packet, from topo.NodeID, now time.Duration)

// Stats counts per-node MAC events.
type Stats struct {
	ATIMSent      int
	ATIMReceived  int
	ATIMAborted   int // ATIM could not fit in the window and was deferred
	DataSent      int
	ImmediateSent int // subset of DataSent the protocol marked immediate (PBBF: the p coin)
	DataReceived  int
	Duplicates    int
	StayAwakeWins int // the protocol's window-end decision kept the node awake (PBBF: the q coin)
}

// Node is one PSM+PBBF MAC instance. Nodes live in a Fleet, whose driver
// calls Fleet.StartFrame at every beacon and Fleet.EndATIMWindow when the
// ATIM window closes.
type Node struct {
	id      topo.NodeID
	cfg     Config
	kernel  *sim.Kernel
	channel *phy.Channel
	rng     *rng.Source
	deliver DeliveryFunc
	// seen marks the run's broadcasts by seq; origin is their one source,
	// set by the first mark (hasOrigin).
	seen      core.SeqSet
	origin    int
	hasOrigin bool

	// Energy accounting lives in the Bank shared by the node's Fleet; slot
	// is this node's account.
	bank *energy.Bank
	slot int

	// trace is the optional event sink (Config.Trace); nil when disabled,
	// and every recording site guards on that so the disabled path costs
	// one predictable branch and zero allocations.
	trace trace.Sink

	// plainPSM marks a run under a PSM protocol with an infinite battery:
	// the beacon pass may take its fast path (see plain).
	plainPSM bool
	awake    bool
	dead     bool // fail-stop: node left the network permanently
	depleted bool // the death was a drained battery, not injected churn
	mustStay bool // ATIM sent/received or traffic pending this BI
	atimOK   bool // this frame's ATIM made it onto the air
	diedAt   time.Duration

	pendingNormal []Packet // waiting for the next ATIM window
	announced     []Packet // announced this BI; data goes out after the window

	txQueue []wire
	txBusy  bool

	// Pre-bound callbacks for the CSMA state machine. Scheduling these hot
	// closures (once per backoff / per frame) out of fields instead of
	// fresh literals keeps the event loop allocation-free.
	attemptTxFn    func()
	afterBackoffFn func()
	txDoneFn       func()
	sendATIMFn     func()
	// onAir is the node's single in-flight frame record, reused across
	// transmissions (the MAC serializes its own transmissions).
	onAir wire
	// relPool recycles the deferred-release records releaseAnnounced
	// schedules for announced data frames.
	relPool []*releaseRec
	// timerPool recycles protocol timer records (ScheduleTimer).
	timerPool []*timerRec

	// proto makes the node's broadcast decisions; usesATIM caches whether
	// it runs the PSM/ATIM substrate. Stateful protocol instances are kept
	// in protos and reconfigured in place across pooled runs.
	proto    protocol.Protocol
	usesATIM bool
	protos   protocol.Instances

	stats Stats
}

var (
	_ phy.Receiver     = (*Node)(nil)
	_ protocol.NodeAPI = (*Node)(nil)
)

// init (re)initializes the node in place for a new run and registers it
// with the channel; the node starts awake (simulation begins at a beacon).
// It reuses every retained allocation: the first-sight set's words, the
// pending/announced/tx queues' capacity, the pre-bound CSMA closures, the
// release-record pool, and the protocol instances. The caller's bank slot
// must already be sized and reset.
func (n *Node) init(id topo.NodeID, cfg Config, kernel *sim.Kernel, channel *phy.Channel,
	bank *energy.Bank, slot int, r *rng.Source, deliver DeliveryFunc) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if deliver == nil {
		return fmt.Errorf("mac: nil delivery callback")
	}
	n.id = id
	n.cfg = cfg
	n.kernel = kernel
	n.channel = channel
	n.rng = r
	n.bank = bank
	n.slot = slot
	n.trace = cfg.Trace
	n.deliver = deliver
	n.seen.Clear()
	n.hasOrigin = false
	n.awake = true
	n.dead = false
	n.depleted = false
	n.diedAt = 0
	n.mustStay = false
	n.atimOK = false
	bank.SetBudget(slot, cfg.Energy)
	n.pendingNormal = n.pendingNormal[:0]
	n.announced = n.announced[:0]
	n.txQueue = n.txQueue[:0]
	n.txBusy = false
	if n.attemptTxFn == nil {
		n.attemptTxFn = n.attemptTx
		n.afterBackoffFn = n.afterBackoff
		n.txDoneFn = n.txDone
		n.sendATIMFn = n.sendATIM
	}
	n.onAir = wire{}
	n.stats = Stats{}
	p, err := n.protos.Get(cfg.Protocol)
	if err != nil {
		return err
	}
	n.proto = p
	n.usesATIM = p.UsesATIM()
	n.plainPSM = n.usesATIM && !bank.Finite(slot)
	if err := p.Reset(n, cfg.Protocol); err != nil {
		return err
	}
	channel.Register(id, n)
	return nil
}

// Params returns the node's configured PBBF operating point.
func (n *Node) Params() core.Params { return n.cfg.Params }

// ID returns the node's identifier.
func (n *Node) ID() topo.NodeID { return n.id }

// Stats returns a copy of the node's MAC counters.
func (n *Node) Stats() Stats { return n.stats }

// Awake reports whether the radio is on.
func (n *Node) Awake() bool { return n.awake }

// Dead reports whether the node has been removed by Kill.
func (n *Node) Dead() bool { return n.dead }

// Kill removes the node from the network permanently (fail-stop churn):
// the radio turns off, queued traffic is dropped, and every later MAC
// entry point — beacons, deliveries, application broadcasts, pending CSMA
// callbacks — becomes a no-op. A frame already on the air when the node
// dies completes normally and is billed at transmit power until its
// airtime ends (the radio was committed to it); from then on the meter
// sits at sleep power, modelling a depleted battery rather than a node
// that vanished retroactively.
func (n *Node) Kill() { n.kill(false) }

// kill is the fail-stop machinery behind Kill (injected churn) and
// pollDepletion (a drained battery); depleted selects the death cause the
// trace event carries.
func (n *Node) kill(depleted bool) {
	if n.dead {
		return
	}
	n.dead = true
	n.depleted = depleted
	n.diedAt = n.kernel.Now()
	if n.trace != nil {
		ev := trace.Event{T: n.kernel.Now(), Kind: trace.KindDeath, Node: int32(n.id), Peer: -1}
		if depleted {
			ev.Value = trace.DeathCauseDepleted
		}
		n.trace.Record(ev)
	}
	n.setAwake(false)
	if !n.channel.Transmitting(n.id) {
		n.setState(energy.Sleep, n.kernel.Now())
	} // else txDone drops the meter to sleep when the frame leaves the air
	n.mustStay = false
	// Truncate rather than drop the queues: every entry point of a dead
	// node returns early, so nothing appends to them again this run, and
	// the next run on a pooled fleet reuses their capacity.
	n.pendingNormal = n.pendingNormal[:0]
	n.announced = n.announced[:0]
	n.txQueue = n.txQueue[:0]
	n.txBusy = false
}

// pollDepletion checks the battery at a state-transition site and applies
// the fail-stop death when it has run dry, reporting whether the node is
// dead afterwards. With an infinite battery (the legacy configuration) the
// check is one predictable branch and draws nothing, so untouched runs
// stay byte-identical.
func (n *Node) pollDepletion() bool {
	if n.dead {
		return true
	}
	if !n.bank.Finite(n.slot) {
		return false
	}
	if n.bank.Depleted(n.slot, n.kernel.Now()) {
		n.kill(true)
		return true
	}
	return false
}

// Depleted reports whether the node died of a drained battery.
func (n *Node) Depleted() bool { return n.depleted }

// DiedAt returns when the node died; meaningful only when Dead.
func (n *Node) DiedAt() time.Duration { return n.diedAt }

// EnergyAt returns the node's cumulative energy use at time now.
func (n *Node) EnergyAt(now time.Duration) float64 { return n.bank.EnergyAt(n.slot, now) }

// TimeIn returns the node's closed-interval time spent in radio state s;
// call FinishMetering first for totals through the end of a run.
func (n *Node) TimeIn(s energy.State) time.Duration { return n.bank.TimeIn(n.slot, s) }

// Listening reports whether the node's radio can decode a frame right now
// (awake and not transmitting), as registered with the channel.
func (n *Node) Listening() bool {
	return n.channel.Listening(n.id)
}

// setAwake flips the radio state and mirrors it into the channel's flat
// listening table (the per-frame fan-out reads the channel copy). Already-
// matching states return early — the call was always idempotent, and the
// early return keeps the trace stream to true transitions.
func (n *Node) setAwake(awake bool) {
	if awake == n.awake {
		return
	}
	n.awake = awake
	n.channel.SetListening(n.id, awake)
	if n.trace != nil {
		kind := trace.KindWake
		if !awake {
			kind = trace.KindSleep
		}
		n.trace.Record(trace.Event{T: n.kernel.Now(), Kind: kind, Node: int32(n.id), Peer: -1})
	}
}

// setState switches the node's energy account to s and mirrors the
// transition into the trace stream (the new radio state plus cumulative
// joules through this instant).
func (n *Node) setState(s energy.State, now time.Duration) {
	n.bank.SetState(n.slot, s, now)
	if n.trace != nil {
		n.trace.Record(trace.Event{
			T: now, Kind: trace.KindEnergy, Node: int32(n.id),
			Peer: int32(s), Value: n.bank.Joules(n.slot),
		})
	}
}

// Broadcast originates a new broadcast from this node (application call);
// the protocol decides how it leaves (PBBF: the p coin applies at
// origination too — Figure 2).
func (n *Node) Broadcast(pkt Packet) {
	if n.dead {
		return
	}
	n.markSeen(pkt.Key) // never re-forward our own packet
	n.proto.OnOriginate(n, pkt)
}

// markSeen records a broadcast and reports whether it was new. It runs
// before any protocol hook, so its checks guard every protocol's state:
// a second origin in one run panics, as a seq past the dense range does.
func (n *Node) markSeen(key core.PacketKey) bool {
	if !n.hasOrigin {
		n.origin, n.hasOrigin = key.Origin, true
	} else if key.Origin != n.origin {
		panic(fmt.Sprintf("mac: node %d saw origin %d after origin %d; a run has one broadcast origin",
			n.id, key.Origin, n.origin))
	}
	return n.seen.Add(key.Seq)
}

// wakeForTraffic turns the radio on mid-interval (Figure 3: DataToSend
// keeps a node awake). Only originators can hit this while asleep — a
// sleeping node cannot receive.
func (n *Node) wakeForTraffic() {
	n.mustStay = true
	if !n.awake {
		n.setAwake(true)
		n.setState(energy.Idle, n.kernel.Now())
	}
}

// The methods below complete the protocol.NodeAPI surface (ID and Params
// are defined above): the primitives protocols decide over. They are the
// only way protocol code touches the node.

// Now returns the current simulation time.
func (n *Node) Now() time.Duration { return n.kernel.Now() }

// Rand returns the node's random source.
func (n *Node) Rand() *rng.Source { return n.rng }

// Timing returns the PSM schedule.
func (n *Node) Timing() core.Timing { return n.cfg.Timing }

// FramesDecoded returns the ATIM and data frames decoded since the run
// began.
func (n *Node) FramesDecoded() int { return n.stats.ATIMReceived + n.stats.DataReceived }

// SendNow queues a protocol-immediate data frame, waking the radio if
// needed (PBBF's p-coin path).
func (n *Node) SendNow(pkt Packet) {
	if n.dead {
		return
	}
	n.wakeForTraffic()
	n.enqueueTx(wire{kind: frameData, pkt: pkt}, true)
}

// Send queues a data frame without waking the radio or marking it
// immediate (scheduled protocol retransmissions).
func (n *Node) Send(pkt Packet) {
	n.enqueueTx(wire{kind: frameData, pkt: pkt}, false)
}

// Announce defers a packet to the next ATIM window.
func (n *Node) Announce(pkt Packet) {
	n.pendingNormal = append(n.pendingNormal, pkt)
}

// DeliverToApp hands a decoded packet to the application.
func (n *Node) DeliverToApp(pkt Packet, from topo.NodeID) {
	if n.trace != nil {
		n.trace.Record(trace.Event{
			T: n.kernel.Now(), Kind: trace.KindDeliver,
			Node: int32(n.id), Peer: int32(from),
			Origin: int32(pkt.Key.Origin), Seq: uint32(pkt.Key.Seq),
			Value: float64(pkt.Hops),
		})
	}
	n.deliver(pkt, from, n.kernel.Now())
}

// SetAwake flips the radio under protocol control, metering the
// transition; a no-op when the state already matches or the node is dead.
func (n *Node) SetAwake(awake bool) {
	if n.dead || awake == n.awake {
		return
	}
	n.setAwake(awake)
	state := energy.Idle
	if !awake {
		state = energy.Sleep
	}
	n.setState(state, n.kernel.Now())
}

// StayThisFrame pins the node awake for the rest of the beacon interval.
func (n *Node) StayThisFrame() { n.mustStay = true }

// TxSlack returns the worst-case release-to-airtime-end span of one data
// transmission: the margin protocols leave when drawing send offsets.
func (n *Node) TxSlack() time.Duration {
	return n.cfg.DataAirtime() + n.cfg.DIFS + time.Duration(n.cfg.CWSlots)*n.cfg.Slot
}

// ScheduleTimer arranges a protocol OnTimer(tag) callback after delay,
// through a pooled record so steady-state timer traffic allocates nothing.
func (n *Node) ScheduleTimer(delay time.Duration, tag int) {
	rec := n.acquireTimer()
	rec.tag = tag
	n.kernel.Schedule(delay, rec.fire)
}

// timerRec is a pooled protocol timer: one pending OnTimer callback with
// its fire closure bound once.
type timerRec struct {
	n    *Node
	tag  int
	fire func()
}

// acquireTimer takes a timer record from the node's pool.
func (n *Node) acquireTimer() *timerRec {
	if k := len(n.timerPool); k > 0 {
		rec := n.timerPool[k-1]
		n.timerPool = n.timerPool[:k-1]
		return rec
	}
	rec := &timerRec{n: n}
	rec.fire = rec.run
	return rec
}

// run recycles the record and forwards to the protocol; timers on dead
// nodes are dropped.
func (rec *timerRec) run() {
	n, tag := rec.n, rec.tag
	n.timerPool = append(n.timerPool, rec)
	if n.dead {
		return
	}
	n.proto.OnTimer(n, tag)
}

// plain reports whether the beacon pass may take its fast path for the
// node: alive, under a PSM protocol, with an infinite battery, and with
// nothing pending or announced. For such a node the depletion poll, the
// ATIM draw and the release scheduling are all no-ops, so the pass writes
// the radio state and the bank slot directly. Traced nodes take the same
// path and record what setAwake and setState would have recorded.
func (n *Node) plain() bool {
	return n.plainPSM && !n.dead && len(n.pendingNormal) == 0 && len(n.announced) == 0
}

// openWindow is the general beacon start of a live node under a PSM
// protocol: it wakes for the ATIM window, promotes pending normal traffic
// for announcement, and schedules the ATIM, if any, to contend for the
// channel.
func (n *Node) openWindow(now time.Duration) {
	n.setAwake(true)
	n.setState(energy.Idle, now)
	n.mustStay = false
	n.atimOK = false
	if len(n.pendingNormal) > 0 {
		n.announced = append(n.announced, n.pendingNormal...)
		n.pendingNormal = n.pendingNormal[:0]
	}
	if len(n.announced) > 0 {
		n.mustStay = true
		// Draw the ATIM transmission time uniformly within the window.
		// Announcers are beacon-synchronized, so contending at the window
		// start would make hidden-terminal ATIM collisions near-certain;
		// spreading keeps the collision rate at the level the paper's
		// ns-2 PSM exhibits (PSM reliability ≈ 1).
		slack := n.cfg.ATIMAirtime() + n.cfg.DIFS + time.Duration(n.cfg.CWSlots)*n.cfg.Slot
		span := n.cfg.Timing.Active - slack
		if span < 0 {
			span = 0
		}
		offset := time.Duration(n.rng.Float64() * float64(span))
		n.kernel.Schedule(offset, n.sendATIMFn)
	}
}

// sendATIM queues this frame's ATIM announcement (scheduled by openWindow).
func (n *Node) sendATIM() {
	n.enqueueTx(wire{kind: frameATIM}, false)
}

// stayAfterWindow makes the protocol's sleep decision at the end of the
// ATIM window (PBBF: the Sleep-Decision-Handler of Figure 3) and reports
// whether the node stays awake.
func (n *Node) stayAfterWindow() bool {
	stay := n.mustStay || n.txBusy || len(n.txQueue) > 0
	if !stay && n.proto.OnWindowEnd(n) {
		stay = true
		n.stats.StayAwakeWins++
	}
	return stay
}

// releaseAnnounced schedules the data frames the node announced in this
// window, or re-queues them when the ATIM never made it out.
func (n *Node) releaseAnnounced() {
	if n.atimOK && len(n.announced) > 0 {
		// Announced receivers stay awake for the whole beacon interval, so
		// the data transmission time is drawn uniformly across it. As with
		// ATIMs, this de-synchronizes the per-hop rebroadcast storm (every
		// node at hop distance h forwards in the same beacon interval).
		slack := n.cfg.DataAirtime() + n.cfg.DIFS + time.Duration(n.cfg.CWSlots)*n.cfg.Slot
		span := n.cfg.Timing.Sleep() - slack
		if span < 0 {
			span = 0
		}
		for _, pkt := range n.announced {
			offset := time.Duration(n.rng.Float64() * float64(span))
			rec := n.acquireRelease()
			rec.pkt = pkt
			n.kernel.Schedule(offset, rec.fire)
		}
		n.announced = n.announced[:0]
	} else if len(n.announced) > 0 {
		// The ATIM never made it out (contention): neighbors were not told
		// to stay awake, so sending data now would be pointless. Re-queue
		// for the next window.
		n.stats.ATIMAborted++
		n.pendingNormal = append(n.pendingNormal, n.announced...)
		n.announced = n.announced[:0]
	}
}

// releaseRec is a pooled deferred-release record: one announced data frame
// waiting out its post-window transmission offset. Its fire closure is
// bound once, so releasing announced traffic allocates nothing in steady
// state.
type releaseRec struct {
	n    *Node
	pkt  Packet
	fire func()
}

// acquireRelease takes a release record from the node's pool.
func (n *Node) acquireRelease() *releaseRec {
	if k := len(n.relPool); k > 0 {
		rec := n.relPool[k-1]
		n.relPool = n.relPool[:k-1]
		return rec
	}
	rec := &releaseRec{n: n}
	rec.fire = rec.run
	return rec
}

// run queues the held data frame for CSMA transmission and recycles the
// record.
func (rec *releaseRec) run() {
	n, pkt := rec.n, rec.pkt
	rec.pkt = Packet{}
	n.relPool = append(n.relPool, rec)
	n.enqueueTx(wire{kind: frameData, pkt: pkt}, false)
}

// Deliver implements phy.Receiver.
func (n *Node) Deliver(f phy.Frame) {
	if n.dead {
		return
	}
	w, ok := f.Payload.(*wire)
	if !ok {
		return // foreign payload: ignore
	}
	switch w.kind {
	case frameATIM:
		n.stats.ATIMReceived++
		if n.trace != nil {
			n.trace.Record(trace.Event{
				T: n.kernel.Now(), Kind: trace.KindRxATIM,
				Node: int32(n.id), Peer: int32(f.Sender),
			})
		}
		// Stay awake the whole beacon interval to receive announced data.
		n.mustStay = true
	case frameData:
		n.stats.DataReceived++
		first := n.markSeen(w.pkt.Key)
		if !first {
			n.stats.Duplicates++
		}
		if n.trace != nil {
			kind := trace.KindRxData
			if !first {
				kind = trace.KindDuplicate
			}
			n.trace.Record(trace.Event{
				T: n.kernel.Now(), Kind: kind,
				Node: int32(n.id), Peer: int32(f.Sender),
				Origin: int32(w.pkt.Key.Origin), Seq: uint32(w.pkt.Key.Seq),
			})
		}
		pkt := w.pkt
		pkt.Hops++
		// Duplicates reach the protocol too (firstCopy=false): OLA-style
		// schemes accumulate energy across every copy. PBBF returns
		// immediately on a duplicate, exactly as the pre-interface MAC did.
		n.proto.OnReceive(n, pkt, f.Sender, first)
	}
}

// enqueueTx appends a frame to the node's transmit queue and starts the
// CSMA machinery if idle. immediate marks p-coin data frames for stats.
func (n *Node) enqueueTx(w wire, immediate bool) {
	if n.dead {
		return // deferred releases may fire after a fail-stop death
	}
	if immediate {
		n.stats.ImmediateSent++
	}
	n.txQueue = append(n.txQueue, w)
	if !n.txBusy {
		n.txBusy = true
		n.attemptTx()
	}
}

// frameStart returns the beginning of the beacon interval containing t.
func (n *Node) frameStart(t time.Duration) time.Duration {
	return t / n.cfg.Timing.Frame * n.cfg.Timing.Frame
}

// inATIMWindow reports whether t is inside the ATIM window of its frame.
func (n *Node) inATIMWindow(t time.Duration) bool {
	return t-n.frameStart(t) < n.cfg.Timing.Active
}

// attemptTx runs one CSMA attempt for the head of the transmit queue.
func (n *Node) attemptTx() {
	if n.dead {
		return
	}
	if len(n.txQueue) == 0 {
		n.txBusy = false
		return
	}
	now := n.kernel.Now()
	head := n.txQueue[0]

	if n.usesATIM && head.kind == frameData && n.inATIMWindow(now) {
		// Data may not be sent during the ATIM window; wait it out.
		windowEnd := n.frameStart(now) + n.cfg.Timing.Active
		n.kernel.ScheduleAt(windowEnd, n.attemptTxFn)
		return
	}

	backoff := n.cfg.DIFS + time.Duration(n.rng.Intn(n.cfg.CWSlots))*n.cfg.Slot

	if head.kind == frameATIM {
		windowEnd := n.frameStart(now) + n.cfg.Timing.Active
		if !n.inATIMWindow(now) || now+backoff+n.cfg.ATIMAirtime() > windowEnd {
			// Can't fit this window; releaseAnnounced will re-queue the
			// packets. Drop the ATIM frame itself.
			n.txQueue = n.txQueue[0:copy(n.txQueue, n.txQueue[1:])]
			n.attemptTx()
			return
		}
	}

	if n.channel.CarrierBusy(n.id) {
		n.kernel.Schedule(backoff, n.attemptTxFn)
		return
	}
	n.kernel.Schedule(backoff, n.afterBackoffFn)
}

// afterBackoff fires when the contention backoff expires: transmit if the
// medium stayed idle, otherwise re-contend.
func (n *Node) afterBackoff() {
	if n.dead {
		return
	}
	if n.channel.CarrierBusy(n.id) {
		n.attemptTx() // medium got busy during backoff: re-contend
		return
	}
	n.transmitHead()
}

// transmitHead puts the head frame on the air.
func (n *Node) transmitHead() {
	if len(n.txQueue) == 0 {
		n.txBusy = false
		return
	}
	n.onAir = n.txQueue[0]
	n.txQueue = n.txQueue[0:copy(n.txQueue, n.txQueue[1:])]
	var airtime time.Duration
	switch n.onAir.kind {
	case frameATIM:
		airtime = n.cfg.ATIMAirtime()
		n.stats.ATIMSent++
		n.atimOK = true
		if n.trace != nil {
			n.trace.Record(trace.Event{
				T: n.kernel.Now(), Kind: trace.KindTxATIM,
				Node: int32(n.id), Peer: -1, Value: airtime.Seconds(),
			})
		}
	case frameData:
		airtime = n.cfg.DataAirtime()
		n.stats.DataSent++
		if n.trace != nil {
			n.trace.Record(trace.Event{
				T: n.kernel.Now(), Kind: trace.KindTxData,
				Node: int32(n.id), Peer: -1,
				Origin: int32(n.onAir.pkt.Key.Origin), Seq: uint32(n.onAir.pkt.Key.Seq),
				Value: airtime.Seconds(),
			})
		}
	}
	n.setState(energy.Transmit, n.kernel.Now())
	err := n.channel.Transmit(phy.Frame{Sender: n.id, Payload: &n.onAir, Airtime: airtime}, n.txDoneFn)
	if err != nil {
		// The MAC serializes its own transmissions, so this is a bug, not
		// a runtime condition; surface it loudly in simulation runs.
		panic(fmt.Sprintf("mac: node %d transmit: %v", n.id, err))
	}
}

// txDone runs when this node's frame leaves the air: back to idle power and
// on to the next queued frame.
func (n *Node) txDone() {
	if n.trace != nil {
		n.trace.Record(trace.Event{T: n.kernel.Now(), Kind: trace.KindTxEnd, Node: int32(n.id), Peer: -1})
	}
	if n.dead {
		// Died mid-airtime: the transmission was billed to completion;
		// now the dead radio rests at sleep power.
		n.setState(energy.Sleep, n.kernel.Now())
		return
	}
	n.setState(energy.Idle, n.kernel.Now())
	// A battery can run dry mid-transmission; the committed frame completes
	// and is billed in full (the radio's capacitors carry it out), and the
	// depletion fires here — after the tx_end event, so the trace never
	// shows a dead node transmitting.
	if n.pollDepletion() {
		return
	}
	n.attemptTx()
}

// FinishMetering closes the node's energy accounting at time now.
func (n *Node) FinishMetering(now time.Duration) {
	n.bank.Finish(n.slot, now)
}
