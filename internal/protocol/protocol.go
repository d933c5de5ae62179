// Package protocol defines the broadcast-protocol contract the MAC layer
// dispatches through: a narrow Protocol interface whose hooks make every
// forwarding, sleeping, and relaying decision, over a NodeAPI that exposes
// the node's radio, queue, timer, and randomness primitives. The MAC
// (internal/mac) remains the substrate — carrier sense, backoff, frame
// airtimes, energy metering, the PSM/ATIM schedule — while everything the
// paper calls "the protocol" lives behind this interface.
//
// Three protocols ship behind the contract:
//
//   - pbbf (the reference, and the default): the paper's Probability-Based
//     Broadcast Forwarding over 802.11 PSM. Byte-identical to the
//     pre-interface implementation — the p and q coins are drawn by the
//     hooks in exactly the order the monolithic MAC drew them. Its
//     adaptive variant (Spec.Adaptive, the paper's Section 6 future work)
//     tunes each node's p and q from what the node overhears.
//   - sleepsched: a King-style sleep-scheduled broadcast ("Sleeping on the
//     Job"): nodes wake on a fixed round-robin schedule and forwarders
//     repeat each packet across consecutive intervals, trading latency for
//     a hard duty-cycle energy bound.
//   - ola: a Kailas-style opportunistic-large-array scheme: always-awake
//     receivers accumulate energy across every overheard copy, decode at a
//     threshold, and only boundary nodes (low accumulated energy at decode
//     time) relay.
//
// See docs/PROTOCOLS.md for the contract's rules and the rival ports'
// modelling choices.
package protocol

import (
	"time"

	"pbbf/internal/core"
	"pbbf/internal/rng"
	"pbbf/internal/topo"
)

// Packet is a broadcast SDU as the protocol layer sees it. mac.Packet is
// an alias of this type, so the application payloads the MAC carries flow
// through protocol hooks unchanged.
type Packet struct {
	// Key identifies the broadcast for duplicate suppression.
	Key core.PacketKey
	// Hops counts MAC hops from the originator (0 at the source).
	Hops int
	// Payload is the application content (opaque to MAC and protocol).
	Payload any
}

// NodeAPI is the substrate surface a Protocol decides over: one MAC node's
// identity, clock, randomness, radio, transmit queue, and timers. All
// methods are single-threaded (the event kernel serializes everything);
// none may be retained across hook invocations except through the node
// itself. Implemented by *mac.Node.
type NodeAPI interface {
	// ID returns the node's identifier.
	ID() topo.NodeID
	// Now returns the current simulation time.
	Now() time.Duration
	// Rand returns the node's random source. Draw order is the determinism
	// contract: a protocol must draw exactly the same sequence for the
	// same inputs, or runs stop being reproducible.
	Rand() *rng.Source
	// Timing returns the PSM schedule (beacon interval and ATIM window).
	Timing() core.Timing
	// Params returns the node's configured PBBF operating point
	// (per-node sampled when heterogeneity is on). Rival protocols may
	// ignore it.
	Params() core.Params
	// FramesDecoded returns how many frames — ATIMs and data, duplicates
	// included — the node has decoded since the run began: its overheard
	// channel activity.
	FramesDecoded() int
	// SendNow queues the packet for immediate CSMA transmission, waking
	// the radio if needed and counting the send as protocol-immediate
	// (the PBBF p-coin path; stats.ImmediateSent).
	SendNow(pkt Packet)
	// Send queues the packet for CSMA transmission without waking the
	// radio or marking it immediate (scheduled retransmissions).
	Send(pkt Packet)
	// Announce defers the packet to the next ATIM window (PSM protocols
	// only; it is never drained when UsesATIM is false).
	Announce(pkt Packet)
	// DeliverToApp hands a decoded packet to the application exactly once
	// per packet, feeding the delivery/latency metrics.
	DeliverToApp(pkt Packet, from topo.NodeID)
	// SetAwake turns the radio on or off, metering the energy transition.
	// A no-op when the state already matches or the node is dead.
	SetAwake(awake bool)
	// StayThisFrame pins the node awake for the rest of the current beacon
	// interval (the PSM must-stay latch; meaningless when UsesATIM is
	// false).
	StayThisFrame()
	// ScheduleTimer calls the protocol's OnTimer(tag) after delay. Timers
	// on dead nodes are dropped. Scheduling is allocation-free in steady
	// state (the node pools timer records).
	ScheduleTimer(delay time.Duration, tag int)
	// TxSlack returns the worst-case time one data transmission needs
	// from release to end of airtime (DIFS + full contention window +
	// airtime) — the margin to leave when drawing send offsets inside an
	// interval.
	TxSlack() time.Duration
}

// Protocol makes the broadcast decisions for one node. Implementations
// are per-node state machines: the MAC calls Reset when a (possibly
// pooled) node is initialized for a run, then the On* hooks as events
// arrive. A protocol with no per-node state may be shared across nodes.
type Protocol interface {
	// Name returns the registered protocol name.
	Name() string
	// UsesATIM reports whether the node runs the 802.11 PSM substrate:
	// beacon-synchronized wakeups, ATIM announcements, the data embargo
	// during the ATIM window, and the end-of-window sleep decision. When
	// false the MAC runs none of that machinery and the protocol owns the
	// radio schedule entirely (via SetAwake and timers).
	UsesATIM() bool
	// Reset (re)initializes the protocol instance for a new run on the
	// given node with the given spec. It must clear all per-node state
	// while retaining allocations, mirroring the pooled kernel's idiom.
	Reset(api NodeAPI, spec Spec) error
	// OnOriginate is called once when the application broadcasts a new
	// packet from this node (already marked seen by the MAC).
	OnOriginate(api NodeAPI, pkt Packet)
	// OnReceive is called for every decoded data frame, duplicates
	// included; firstCopy is true for the first copy of a packet this node
	// has seen. Hops is already incremented for this hop.
	OnReceive(api NodeAPI, pkt Packet, from topo.NodeID, firstCopy bool)
	// OnFrameStart is called at every beacon-interval boundary, after the
	// PSM substrate's own frame work when UsesATIM is true, or as the only
	// per-frame hook when false.
	OnFrameStart(api NodeAPI)
	// OnWindowEnd is the end-of-ATIM-window sleep decision (PSM protocols
	// only): it is consulted only when the substrate has no reason to stay
	// awake, and returning true keeps the node awake for this interval.
	OnWindowEnd(api NodeAPI) bool
	// OnTimer is called when a timer scheduled via ScheduleTimer fires.
	OnTimer(api NodeAPI, tag int)
}
