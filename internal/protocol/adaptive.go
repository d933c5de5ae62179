package protocol

import (
	"fmt"
	"math"

	"pbbf/internal/core"
	"pbbf/internal/topo"
)

// AdaptiveConfig tunes adaptive PBBF, the paper's future-work extension
// (Section 6): each node adjusts its own p and q from what it observes
// instead of using fixed global values. The controller starts from the
// node's configured PBBF Params.
type AdaptiveConfig struct {
	// Step is the multiplicative-increase / additive-decrease step size.
	Step float64
	// ActivityTarget is the neighbor-activity level (smoothed count of
	// overheard transmissions per active period) above which p is raised:
	// "when a node overhears more nodes involved in communication, p could
	// be increased since more nodes will be active to receive the
	// broadcast."
	ActivityTarget float64
	// LossTarget is the tolerated fraction of missed broadcasts; observed
	// loss above it raises q: "the q parameter could be increased in
	// response to a node detecting a large fraction of broadcast packets
	// are not being received."
	LossTarget float64
	// Alpha is the EWMA smoothing factor in (0, 1] for both signals.
	Alpha float64
}

// DefaultAdaptiveConfig returns a conservative configuration: 0.05 steps,
// EWMA alpha 0.2.
func DefaultAdaptiveConfig() AdaptiveConfig {
	return AdaptiveConfig{
		Step:           0.05,
		ActivityTarget: 2,
		LossTarget:     0.01,
		Alpha:          0.2,
	}
}

// Validate checks the configuration invariants.
func (c AdaptiveConfig) Validate() error {
	if c.Step <= 0 || c.Step > 1 {
		return fmt.Errorf("protocol: adaptive step %v outside (0,1]", c.Step)
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("protocol: adaptive alpha %v outside (0,1]", c.Alpha)
	}
	if c.ActivityTarget < 0 {
		return fmt.Errorf("protocol: activity target %v negative", c.ActivityTarget)
	}
	if c.LossTarget < 0 || c.LossTarget >= 1 {
		return fmt.Errorf("protocol: loss target %v outside [0,1)", c.LossTarget)
	}
	return nil
}

// adaptive is PBBF with a per-node controller over its two coins: p
// follows overheard neighbor activity, q follows broadcast loss detected
// from sequence-number gaps. Neither observation draws randomness, and
// each lands before the next coin reads the operating point, so the coins
// are drawn exactly where static PBBF draws them.
type adaptive struct {
	cfg      AdaptiveConfig
	params   core.Params
	activity float64 // EWMA of frames decoded per beacon interval
	loss     float64 // EWMA of the miss indicator
	decoded  int     // api.FramesDecoded() at the last beacon
	lastSeq  uint64  // highest sequence delivered, once seenAny
	seenAny  bool
}

func (a *adaptive) Name() string         { return NamePBBF }
func (a *adaptive) UsesATIM() bool       { return true }
func (a *adaptive) OnTimer(NodeAPI, int) {}

func (a *adaptive) Reset(api NodeAPI, spec Spec) error {
	a.cfg = *spec.Adaptive
	a.params = api.Params()
	a.activity = 0
	a.loss = a.cfg.LossTarget
	a.decoded = api.FramesDecoded()
	a.lastSeq, a.seenAny = 0, false
	return nil
}

func (a *adaptive) OnOriginate(api NodeAPI, pkt Packet) { pbbfRoute(api, a.params, pkt) }

// OnReceive delivers a first copy, feeds its sequence number to the q
// controller, and routes it onward with the live p.
func (a *adaptive) OnReceive(api NodeAPI, pkt Packet, from topo.NodeID, firstCopy bool) {
	if !firstCopy {
		return
	}
	api.DeliverToApp(pkt, from)
	a.observeSequence(pkt.Key.Seq)
	pbbfRoute(api, a.params, pkt)
}

// OnFrameStart feeds the frames decoded during the last beacon interval
// (ATIMs and data, duplicates included) to the p controller.
func (a *adaptive) OnFrameStart(api NodeAPI) {
	decoded := api.FramesDecoded()
	a.observeActivity(decoded - a.decoded)
	a.decoded = decoded
}

func (a *adaptive) OnWindowEnd(api NodeAPI) bool { return a.params.StayAwake(api.Rand()) }

// observeActivity feeds the number of transmissions overheard in the last
// active period. High activity means many neighbors are awake, so
// immediate broadcasts are likely to be received: raise p — but only while
// observed loss is under control (reliability-first: aggressive immediate
// forwarding is never worth missing broadcasts). Low activity or excess
// loss lowers p back toward the reliable normal-broadcast path.
func (a *adaptive) observeActivity(transmissions int) {
	a.activity = (1-a.cfg.Alpha)*a.activity + a.cfg.Alpha*float64(transmissions)
	switch {
	case a.loss > a.cfg.LossTarget:
		a.params.P = clamp01(a.params.P - a.cfg.Step)
	case a.activity > a.cfg.ActivityTarget:
		a.params.P = clamp01(a.params.P + a.cfg.Step)
	case a.activity < a.cfg.ActivityTarget/2:
		a.params.P = clamp01(a.params.P - a.cfg.Step)
	}
}

// observeSequence turns a delivered packet into delivery outcomes: every
// sequence number skipped since the last delivery is a missed broadcast
// (Section 6: "a node detecting a large fraction of broadcast packets are
// not being received"), and the packet itself is a success. A run's
// broadcasts share one origin, so one sequence history covers them.
func (a *adaptive) observeSequence(seq uint64) {
	if !a.seenAny || seq > a.lastSeq {
		if a.seenAny {
			for missed := a.lastSeq + 1; missed < seq; missed++ {
				a.observeDelivery(false)
			}
		}
		a.lastSeq, a.seenAny = seq, true
	}
	a.observeDelivery(true)
}

// observeDelivery feeds one broadcast outcome. Sustained loss above the
// target raises q; loss well under the target lets q decay to save energy.
func (a *adaptive) observeDelivery(received bool) {
	miss := 0.0
	if !received {
		miss = 1
	}
	a.loss = (1-a.cfg.Alpha)*a.loss + a.cfg.Alpha*miss
	switch {
	case a.loss > a.cfg.LossTarget:
		a.params.Q = clamp01(a.params.Q + a.cfg.Step)
	case a.loss < a.cfg.LossTarget/2:
		a.params.Q = clamp01(a.params.Q - a.cfg.Step)
	}
}

func clamp01(v float64) float64 {
	return math.Max(0, math.Min(1, v))
}
