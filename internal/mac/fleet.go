package mac

import (
	"time"

	"pbbf/internal/energy"
	"pbbf/internal/phy"
	"pbbf/internal/rng"
	"pbbf/internal/sim"
	"pbbf/internal/topo"
	"pbbf/internal/trace"
)

// Fleet is a pooled set of MAC nodes sharing one energy bank, and the
// driver of their beacon schedule (StartFrame, EndATIMWindow). Nodes are
// heap-allocated once per slot and reinitialized in place across runs —
// their addresses must stay stable because the CSMA state machine's
// pre-bound closures and the channel's receiver table capture node
// pointers. Per-node random sources live in one flat slice seeded by
// SplitInto, so a reused fleet draws exactly the streams a fresh
// construction would.
//
// Usage per run: Reset, then InitNode for every slot in ID order; then
// StartFrame at every beacon and EndATIMWindow when each ATIM window
// closes.
type Fleet struct {
	nodes []*Node
	rngs  []rng.Source
	bank  *energy.Bank
}

// NewFleet returns an empty fleet; it grows to fit on first Reset.
func NewFleet() *Fleet { return &Fleet{bank: energy.NewBank()} }

// Reset sizes the fleet for n nodes with a shared power profile, all
// accounts opening in the idle state at time now. Existing node objects
// (and their retained buffers) are kept; new slots are filled with fresh
// nodes. Every slot must be reinitialized with InitNode before use.
func (f *Fleet) Reset(n int, profile energy.Profile, now time.Duration) {
	f.bank.Init(n, energy.Config{Profile: profile, Initial: energy.Idle, Start: now})
	nodes := f.nodes
	if cap(nodes) >= n {
		nodes = nodes[:n]
	} else {
		nodes = append(nodes[:cap(nodes)], make([]*Node, n-cap(nodes))...)
	}
	for i := range nodes {
		if nodes[i] == nil {
			nodes[i] = &Node{}
		}
	}
	f.nodes = nodes
	if cap(f.rngs) >= n {
		f.rngs = f.rngs[:n]
	} else {
		f.rngs = make([]rng.Source, n)
	}
}

// InitNode reinitializes slot i for a new run and registers it with the
// channel, drawing the node's random source from base with SplitInto, the
// same stream base.Split() would return.
func (f *Fleet) InitNode(i int, id topo.NodeID, cfg Config, kernel *sim.Kernel,
	channel *phy.Channel, base *rng.Source, deliver DeliveryFunc) error {
	base.SplitInto(&f.rngs[i])
	return f.nodes[i].init(id, cfg, kernel, channel, f.bank, i, &f.rngs[i], deliver)
}

// Nodes returns the fleet's node slice, valid until the next Reset. Callers
// must not mutate it.
func (f *Fleet) Nodes() []*Node { return f.nodes }

// Node returns the node in slot i.
func (f *Fleet) Node(i int) *Node { return f.nodes[i] }

// StartFrame begins a new beacon interval on every node, in ID order. Under
// a PSM protocol (UsesATIM) every live node wakes for the ATIM window,
// pending normal traffic is promoted for announcement, and the ATIM (if
// any) contends for the channel; protocols without the PSM substrate own
// the radio schedule and only get their OnFrameStart hook. A node whose
// battery ran dry dies here instead.
func (f *Fleet) StartFrame(now time.Duration) {
	for _, n := range f.nodes {
		switch {
		case n.plain():
			// setAwake(true) and setState(Idle) written out, records
			// included, so the pass makes no call for the node.
			woke := !n.awake
			n.awake = true
			n.channel.SetListening(n.id, true)
			n.bank.SetState(n.slot, energy.Idle, now)
			if n.trace != nil {
				if woke {
					n.trace.Record(trace.Event{T: now, Kind: trace.KindWake, Node: int32(n.id), Peer: -1})
				}
				n.trace.Record(trace.Event{T: now, Kind: trace.KindEnergy, Node: int32(n.id),
					Peer: int32(energy.Idle), Value: n.bank.Joules(n.slot)})
			}
			n.mustStay, n.atimOK = false, false
		case n.pollDepletion():
			continue
		case n.usesATIM:
			n.openWindow(now)
		}
		n.proto.OnFrameStart(n)
	}
}

// EndATIMWindow closes the ATIM window on every node, in ID order: the
// protocol's sleep decision and, if the node announced traffic, the release
// of its data frames to contend for the channel. Nodes without the PSM
// substrate are skipped; a node whose battery ran dry dies here instead.
func (f *Fleet) EndATIMWindow(now time.Duration) {
	for _, n := range f.nodes {
		if n.plain() {
			if !n.stayAfterWindow() {
				// setAwake(false) and setState(Sleep), as in StartFrame.
				slept := n.awake
				n.awake = false
				n.channel.SetListening(n.id, false)
				n.bank.SetState(n.slot, energy.Sleep, now)
				if n.trace != nil {
					if slept {
						n.trace.Record(trace.Event{T: now, Kind: trace.KindSleep, Node: int32(n.id), Peer: -1})
					}
					n.trace.Record(trace.Event{T: now, Kind: trace.KindEnergy, Node: int32(n.id),
						Peer: int32(energy.Sleep), Value: n.bank.Joules(n.slot)})
				}
			}
			continue
		}
		if n.pollDepletion() || !n.usesATIM {
			continue
		}
		if !n.stayAfterWindow() {
			n.setAwake(false)
			n.setState(energy.Sleep, now)
		}
		n.releaseAnnounced()
	}
}
