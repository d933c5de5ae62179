package protocol

import (
	"pbbf/internal/core"
	"pbbf/internal/topo"
)

// Default OLA thresholds: one expected full-strength reception decodes;
// a node that needed at most half a copy beyond the threshold counts as a
// boundary node and relays.
const (
	defaultDecodeThreshold = 1.0
	defaultRelayThreshold  = 1.5
)

// ola is a Kailas-style opportunistic large array (OLA) broadcast with
// cooperative energy accumulation: every receiver banks the gain of every
// overheard copy of a packet — duplicates included, which is why OnReceive
// consumes non-first copies — and decodes once the accumulated gain
// crosses DecodeThreshold. Of the decoders, only boundary nodes relay:
// those whose accumulated gain sits below RelayThreshold at decode time,
// the OLA analogue of "the decoding frontier retransmits, the saturated
// interior stays quiet". Radios never sleep (UsesATIM is false and the
// protocol never calls SetAwake(false)), so OLA anchors the always-on
// corner of the energy-latency frontier with a relay count throttled by
// the threshold pair.
//
// Each copy's gain is drawn uniformly in [0.5, 1.5) from the receiving
// node's stream — a unit-mean fading proxy standing in for the path-loss
// accumulation of the analog model, which keeps the port inside the
// repository's existing unit-disk PHY. The support straddles the default
// decode threshold on purpose: half of all single copies decode outright
// (the near field of a real OLA burst), the rest need a second overheard
// copy, which is what makes the accumulation — and the relay frontier it
// feeds — actually happen.
type ola struct {
	decodeAt float64
	relayAt  float64
	// acc banks each packet's gain until decode, and decoded marks packets
	// past the threshold, both by Key.Seq and kept across pooled runs.
	acc     []float64
	decoded core.SeqSet
}

func (o *ola) Name() string             { return NameOLA }
func (o *ola) UsesATIM() bool           { return false }
func (o *ola) OnFrameStart(NodeAPI)     {}
func (o *ola) OnTimer(NodeAPI, int)     {}
func (o *ola) OnWindowEnd(NodeAPI) bool { return true } // never consulted: no ATIM substrate

func (o *ola) Reset(_ NodeAPI, spec Spec) error {
	o.decodeAt = spec.DecodeThreshold
	if o.decodeAt == 0 {
		o.decodeAt = defaultDecodeThreshold
	}
	o.relayAt = spec.RelayThreshold
	if o.relayAt == 0 {
		o.relayAt = defaultRelayThreshold
	}
	o.acc = o.acc[:0]
	o.decoded.Clear()
	return nil
}

// OnOriginate: the source holds the packet by construction — transmit once
// and never accumulate against it.
func (o *ola) OnOriginate(api NodeAPI, pkt Packet) {
	o.decoded.Add(pkt.Key.Seq)
	api.SendNow(pkt)
}

// OnReceive accumulates this copy's gain and, on crossing the decode
// threshold, delivers the packet and applies the boundary relay test.
func (o *ola) OnReceive(api NodeAPI, pkt Packet, from topo.NodeID, firstCopy bool) {
	seq := pkt.Key.Seq
	if o.decoded.Has(seq) {
		return
	}
	for uint64(len(o.acc)) <= seq {
		o.acc = append(o.acc, 0)
	}
	gain := 0.5 + api.Rand().Float64()
	total := o.acc[seq] + gain
	if total < o.decodeAt {
		o.acc[seq] = total
		return
	}
	o.decoded.Add(seq)
	api.DeliverToApp(pkt, from)
	if total < o.relayAt {
		api.SendNow(pkt)
	}
}
