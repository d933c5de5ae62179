package protocol

import (
	"pbbf/internal/core"
	"pbbf/internal/topo"
)

// PBBF is the reference protocol: the paper's Probability-Based Broadcast
// Forwarding, Figure 3, over the MAC's PSM/ATIM substrate. It is stateless
// — the two coins read the node's configured operating point — so one
// shared instance serves every node allocation-free. Spec.Adaptive selects
// its stateful variant, adaptive PBBF (adaptive.go).
//
// Determinism contract: these hooks draw exactly the random sequence the
// pre-interface MAC drew — one p coin per originated or newly received
// packet, one q coin per ATIM window that would otherwise sleep — so PBBF
// runs are byte-identical across the refactor (pinned by the golden test).
var PBBF Protocol = pbbf{}

type pbbf struct{}

func (pbbf) Name() string              { return NamePBBF }
func (pbbf) UsesATIM() bool            { return true }
func (pbbf) Reset(NodeAPI, Spec) error { return nil }
func (pbbf) OnFrameStart(NodeAPI)      {}
func (pbbf) OnTimer(NodeAPI, int)      {}

// OnOriginate applies the Receive-Broadcast decision at the source too
// (Figure 2: the source may send immediately instead of waiting for the
// next ATIM window).
func (pbbf) OnOriginate(api NodeAPI, pkt Packet) { pbbfRoute(api, api.Params(), pkt) }

// OnReceive delivers a first copy and routes it onward; duplicates were
// already suppressed by the p-coin's position after the filter.
func (pbbf) OnReceive(api NodeAPI, pkt Packet, from topo.NodeID, firstCopy bool) {
	if !firstCopy {
		return
	}
	api.DeliverToApp(pkt, from)
	pbbfRoute(api, api.Params(), pkt)
}

// OnWindowEnd is the Sleep-Decision-Handler's q coin: a node with no
// traffic stays awake anyway with probability q.
func (pbbf) OnWindowEnd(api NodeAPI) bool {
	return api.Params().StayAwake(api.Rand())
}

// pbbfRoute is the Receive-Broadcast decision of Figure 3: forward
// immediately with probability p, else queue for the next ATIM window.
func pbbfRoute(api NodeAPI, params core.Params, pkt Packet) {
	if params.ForwardImmediately(api.Rand()) {
		api.SendNow(pkt)
		return
	}
	api.Announce(pkt)
}
