// Package phy models the wireless channel for the fine-grained simulator
// (Section 5): unit-disk propagation over a topology, carrier sensing, and
// per-receiver collision detection.
//
// The model matches the abstraction level of the ns-2 802.11 stack the
// paper used: a frame occupies the channel at every neighbor of the sender
// for its full on-air time; a receiver that hears two temporally
// overlapping frames decodes neither (no capture effect); a receiver that
// is not listening when a frame starts never decodes it. Propagation delay
// is negligible at sensor ranges and is modelled as zero.
package phy

import (
	"fmt"
	"time"

	"pbbf/internal/rng"
	"pbbf/internal/sim"
	"pbbf/internal/topo"
	"pbbf/internal/trace"
)

// Frame is one on-air transmission. Payload is opaque to the channel.
type Frame struct {
	// Sender is the transmitting node.
	Sender topo.NodeID
	// Payload is the MAC frame content.
	Payload any
	// Airtime is the frame's on-air duration.
	Airtime time.Duration
}

// Receiver is the per-node upcall surface the MAC registers with the
// channel. Radio state (listening or not) lives in the channel itself —
// the MAC reports sleep/wake transitions via SetListening — so the
// per-neighbor fan-out on every frame reads a flat bool slice instead of
// calling back through an interface.
type Receiver interface {
	// Deliver hands a successfully decoded frame to the node.
	Deliver(f Frame)
}

// reception tracks one in-progress decode at a receiver. Records live
// inline in the channel's per-node slice (active marks occupancy) so
// starting a decode allocates nothing. A record names only the sender: a
// sender has at most one frame on the air (Transmit refuses a second), so
// the sender identifies the frame, and the pointer-free record keeps the
// per-receiver write small and invisible to the garbage collector.
type reception struct {
	sender    topo.NodeID
	active    bool
	corrupted bool
}

// txEnd is the pooled end-of-airtime record for one transmission. Its
// fire closure is bound once when the record is created, so concurrent
// transmissions each reuse a pooled record and a pooled event slot with no
// per-transmit allocation.
type txEnd struct {
	c         *Channel
	frame     Frame
	neighbors []topo.NodeID
	onDone    func()
	fire      func()
}

// Channel connects the nodes of a topology. Create with NewChannel, then
// Register a Receiver for every node before any Transmit call.
type Channel struct {
	kernel    *sim.Kernel
	topo      topo.Topology
	receivers []Receiver
	// busy counts in-range active transmissions per node (carrier sense).
	busy []int
	// rx is the frame currently being decoded at each node, if any.
	rx []reception
	// transmitting marks nodes whose own radio is in TX mode.
	transmitting []bool
	// listening marks nodes whose radio is awake (set by the MAC); a node
	// decodes only while listening and not transmitting.
	listening []bool
	// endPool recycles txEnd records across transmissions.
	endPool []*txEnd

	// lossRate drops otherwise-successful receptions independently with
	// this probability (fading/noise injection; 0 = ideal channel).
	lossRate float64
	lossRNG  *rng.Source

	// linkLoss, when non-nil, additionally drops receptions with a
	// persistent per-link probability (link quality diversity; see
	// LinkLoss).
	linkLoss *LinkLoss
	linkRNG  *rng.Source

	// trace, when non-nil, receives reception-drop events (collisions,
	// fading) — the channel-side slice of the simulation event stream.
	trace trace.Sink

	// Stats counters (whole-network, for diagnostics and tests).
	started   int
	delivered int
	collided  int
	faded     int
	linkFaded int
}

// NewChannel returns a channel over the given topology.
func NewChannel(kernel *sim.Kernel, t topo.Topology) *Channel {
	c := &Channel{kernel: kernel}
	c.Reset(t)
	return c
}

// Reset rebinds the channel to a (possibly different) topology and clears
// every per-run state: receivers, carrier-sense counts, in-progress
// decodes, radio states, loss injection, and counters. The per-node slices
// and the txEnd record pool are kept, so a pooled channel reruns without
// per-run allocation once its slices have grown to the largest topology
// seen. A reset channel is indistinguishable from a fresh NewChannel.
func (c *Channel) Reset(t topo.Topology) {
	c.topo = t
	n := t.N()
	if cap(c.receivers) < n {
		c.receivers = make([]Receiver, n)
		c.busy = make([]int, n)
		c.rx = make([]reception, n)
		c.transmitting = make([]bool, n)
		c.listening = make([]bool, n)
	} else {
		c.receivers = c.receivers[:n]
		c.busy = c.busy[:n]
		c.rx = c.rx[:n]
		c.transmitting = c.transmitting[:n]
		c.listening = c.listening[:n]
	}
	clear(c.receivers)
	clear(c.busy)
	clear(c.rx)
	clear(c.transmitting)
	clear(c.listening)
	c.lossRate, c.lossRNG = 0, nil
	c.linkLoss, c.linkRNG = nil, nil
	c.trace = nil
	c.started, c.delivered, c.collided, c.faded, c.linkFaded = 0, 0, 0, 0, 0
}

// SetTrace installs the channel's event sink (nil disables tracing).
// Recording is pure observation; traced and untraced runs are identical.
func (c *Channel) SetTrace(s trace.Sink) { c.trace = s }

// Register installs the receiver upcall for a node. Registered nodes start
// listening (simulations begin with every radio awake); the MAC flips the
// state with SetListening as nodes sleep and wake.
func (c *Channel) Register(id topo.NodeID, r Receiver) {
	c.receivers[id] = r
	c.listening[id] = true
}

// SetListening records whether the node's radio is awake. A node decodes a
// frame only if it is listening — and not transmitting — for the frame's
// entire airtime.
func (c *Channel) SetListening(id topo.NodeID, on bool) {
	c.listening[id] = on
}

// Listening reports the node's radio state as the channel sees it: awake
// and not mid-transmission.
func (c *Channel) Listening(id topo.NodeID) bool {
	return c.listening[id] && !c.transmitting[id]
}

// canHear reports whether the node can decode right now.
func (c *Channel) canHear(nb topo.NodeID) bool {
	return c.listening[nb] && !c.transmitting[nb] && c.receivers[nb] != nil
}

// CarrierBusy reports whether node senses energy on the channel (an
// in-range transmission is in progress). A node's own transmission also
// counts as busy.
func (c *Channel) CarrierBusy(id topo.NodeID) bool {
	return c.busy[id] > 0 || c.transmitting[id]
}

// Transmitting reports whether the node's radio is currently in TX mode.
func (c *Channel) Transmitting(id topo.NodeID) bool { return c.transmitting[id] }

// SetLoss enables independent per-reception frame loss with the given
// probability (failure injection for robustness experiments). rate must be
// in [0, 1); r must be non-nil when rate > 0.
func (c *Channel) SetLoss(rate float64, r *rng.Source) error {
	if rate < 0 || rate >= 1 {
		return fmt.Errorf("phy: loss rate %v outside [0,1)", rate)
	}
	if rate > 0 && r == nil {
		return fmt.Errorf("phy: loss injection requires a random source")
	}
	c.lossRate = rate
	c.lossRNG = r
	return nil
}

// Stats returns cumulative counts of frames started, frames delivered
// (across all receivers), and receptions lost to collisions.
func (c *Channel) Stats() (started, delivered, collided int) {
	return c.started, c.delivered, c.collided
}

// Faded returns how many receptions were dropped by loss injection.
func (c *Channel) Faded() int { return c.faded }

// LinkFaded returns how many receptions were dropped by the per-link loss
// table.
func (c *Channel) LinkFaded() int { return c.linkFaded }

// Transmit puts f on the air now. onDone, if non-nil, runs when the frame's
// airtime ends (after deliveries). Returns an error if the sender is
// already transmitting — the MAC must serialize its own transmissions.
func (c *Channel) Transmit(f Frame, onDone func()) error {
	if f.Airtime <= 0 {
		return fmt.Errorf("phy: airtime %v must be positive", f.Airtime)
	}
	if c.transmitting[f.Sender] {
		return fmt.Errorf("phy: node %d already transmitting", f.Sender)
	}
	c.started++
	c.transmitting[f.Sender] = true
	neighbors := c.topo.Neighbors(f.Sender)
	for _, nb := range neighbors {
		c.busy[nb]++
		switch {
		case c.rx[nb].active:
			// Overlap with an in-progress decode: both are lost.
			c.rx[nb].corrupted = true
		case c.busy[nb] == 1 && c.canHear(nb):
			c.rx[nb] = reception{sender: f.Sender, active: true}
		default:
			// Channel already busy or radio not listening: frame lost at
			// this receiver. Nothing to record; busy bookkeeping suffices.
		}
	}
	end := c.acquireEnd()
	end.frame = f
	end.neighbors = neighbors
	end.onDone = onDone
	c.kernel.Schedule(f.Airtime, end.fire)
	return nil
}

// acquireEnd takes a txEnd record from the pool, creating one (with its
// bound fire closure) only when the pool is empty.
func (c *Channel) acquireEnd() *txEnd {
	if n := len(c.endPool); n > 0 {
		end := c.endPool[n-1]
		c.endPool = c.endPool[:n-1]
		return end
	}
	end := &txEnd{c: c}
	end.fire = end.run
	return end
}

// run completes one transmission: clears carrier sense, resolves every
// in-progress decode of this frame, and recycles the record.
func (end *txEnd) run() {
	c, f := end.c, end.frame
	c.transmitting[f.Sender] = false
	for _, nb := range end.neighbors {
		c.busy[nb]--
		r := &c.rx[nb]
		if !r.active || r.sender != f.Sender {
			continue
		}
		corrupted := r.corrupted
		*r = reception{}
		if corrupted {
			c.collided++
			c.traceDrop(trace.KindDropCollision, nb, f.Sender)
			continue
		}
		if c.canHear(nb) {
			if c.lossRate > 0 && c.lossRNG.Bool(c.lossRate) {
				c.faded++
				c.traceDrop(trace.KindDropFade, nb, f.Sender)
				continue
			}
			if c.linkLoss != nil {
				if rate := c.linkLoss.Rate(f.Sender, nb); rate > 0 && c.linkRNG.Bool(rate) {
					c.linkFaded++
					c.traceDrop(trace.KindDropLinkFade, nb, f.Sender)
					continue
				}
			}
			c.delivered++
			c.receivers[nb].Deliver(f)
		}
	}
	onDone := end.onDone
	end.frame = Frame{}
	end.neighbors = nil
	end.onDone = nil
	c.endPool = append(c.endPool, end)
	if onDone != nil {
		onDone()
	}
}

// traceDrop records one lost reception, guarding the disabled path down
// to a single branch.
func (c *Channel) traceDrop(kind trace.Kind, nb, sender topo.NodeID) {
	if c.trace == nil {
		return
	}
	c.trace.Record(trace.Event{T: c.kernel.Now(), Kind: kind, Node: int32(nb), Peer: int32(sender)})
}
