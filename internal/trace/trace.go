// Package trace is the simulator's event-level observability spine: a
// compact event record, a Sink interface the netsim/mac/phy hot path
// writes through, and in-memory sinks (slab, discard) for the
// consumers — the `pbbf trace` subcommand, protocol-behavior regression
// tests, and the neutrality and allocation tests that run every scenario
// recording into Discard.
//
// The contract with the hot path is zero overhead when disabled: every
// instrumentation site guards on a nil sink, events are plain structs
// passed by value (no boxing), and recording never draws randomness or
// mutates simulation state — so a traced run computes byte-identical
// results to an untraced one, and an untraced run allocates exactly what
// it did before tracing existed.
package trace

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// Kind discriminates trace events. The zero value is invalid so a zeroed
// Event is recognizable as "no event".
type Kind uint8

const (
	// KindTxData marks a data frame starting transmission (node = sender,
	// origin/seq identify the packet, value = airtime in seconds).
	KindTxData Kind = iota + 1
	// KindTxATIM marks an ATIM announcement starting transmission
	// (node = sender, value = airtime in seconds).
	KindTxATIM
	// KindTxEnd marks the sender's frame leaving the air (node = sender).
	KindTxEnd
	// KindRxData marks a first-copy data frame decode (node = receiver,
	// peer = sender, origin/seq identify the packet).
	KindRxData
	// KindRxATIM marks an ATIM decode (node = receiver, peer = sender).
	KindRxATIM
	// KindDuplicate marks a decoded data frame suppressed as a duplicate
	// (node = receiver, peer = sender, origin/seq identify the packet).
	KindDuplicate
	// KindDeliver marks a new packet reaching the application (node =
	// receiver, peer = forwarder, origin/seq, value = hop count).
	KindDeliver
	// KindDropCollision marks a reception lost to frame overlap
	// (node = receiver, peer = sender).
	KindDropCollision
	// KindDropFade marks a reception lost to iid loss injection
	// (node = receiver, peer = sender).
	KindDropFade
	// KindDropLinkFade marks a reception lost to the per-link loss table
	// (node = receiver, peer = sender).
	KindDropLinkFade
	// KindWake marks a radio turning on (node).
	KindWake
	// KindSleep marks a radio turning off (node).
	KindSleep
	// KindEnergy marks a radio power-state change on the energy meter
	// (node, peer = new state index per energy.State, value = cumulative
	// joules consumed so far).
	KindEnergy
	// KindDeath marks a fail-stop node death (node, value = the death
	// cause: DeathCauseChurn or DeathCauseDepleted).
	KindDeath

	kindCount
)

// Death causes carried in a KindDeath event's Value field. Churn is the
// zero value so pre-finite-energy death events — and their committed golden
// bytes, which omit zero values — are unchanged.
const (
	// DeathCauseChurn marks an externally injected fail-stop death.
	DeathCauseChurn = 0
	// DeathCauseDepleted marks a battery running dry; the NDJSON line
	// carries `"cause":"depleted"`.
	DeathCauseDepleted = 1
)

var kindNames = [kindCount]string{
	KindTxData:        "tx_data",
	KindTxATIM:        "tx_atim",
	KindTxEnd:         "tx_end",
	KindRxData:        "rx_data",
	KindRxATIM:        "rx_atim",
	KindDuplicate:     "duplicate",
	KindDeliver:       "deliver",
	KindDropCollision: "drop_collision",
	KindDropFade:      "drop_fade",
	KindDropLinkFade:  "drop_linkfade",
	KindWake:          "wake",
	KindSleep:         "sleep",
	KindEnergy:        "energy",
	KindDeath:         "death",
}

// String returns the kind's NDJSON name.
func (k Kind) String() string {
	if k == 0 || k >= kindCount {
		return "invalid"
	}
	return kindNames[k]
}

// Group classifies kinds for the trace command's -events filter.
type Group uint8

const (
	// GroupPacket covers frame lifecycle events: tx/rx/drops/duplicates/
	// application deliveries.
	GroupPacket Group = 1 << iota
	// GroupRadio covers radio schedule events: wake/sleep/death.
	GroupRadio
	// GroupEnergy covers energy meter state changes.
	GroupEnergy

	// GroupAll selects every event group.
	GroupAll = GroupPacket | GroupRadio | GroupEnergy
)

// Group returns the event group the kind belongs to.
func (k Kind) Group() Group {
	switch k {
	case KindWake, KindSleep, KindDeath:
		return GroupRadio
	case KindEnergy:
		return GroupEnergy
	default:
		return GroupPacket
	}
}

// Event is one simulation event. The struct is compact and fixed-size so
// a slab of a few hundred thousand events is one contiguous allocation.
// Field meaning varies by Kind (see the Kind constants); unused fields
// are zero, and Peer is -1 when no peer applies.
type Event struct {
	// T is the simulation time of the event.
	T time.Duration
	// Node is the node the event happened at.
	Node int32
	// Peer is the other party (sender for receptions/drops, the new
	// energy.State index for energy events), or -1.
	Peer int32
	// Origin and Seq identify the broadcast packet for packet-carrying
	// kinds (the duplicate-suppression key).
	Origin int32
	Seq    uint32
	// Kind discriminates the event.
	Kind Kind
	// Value is the kind-specific measurement (airtime seconds, cumulative
	// joules, hop count).
	Value float64
}

// Sink receives events from the simulation hot path. Record is called
// synchronously from the event loop and must not block or panic; it may
// not call back into the simulation.
type Sink interface {
	Record(ev Event)
}

// Slab is an append-only in-memory sink: the whole event stream of one
// run in one growing slice.
type Slab struct {
	// Run is the run index the slab captured (set by Collector).
	Run int
	// Events is the recorded stream in simulation order.
	Events []Event
}

// Record implements Sink.
func (s *Slab) Record(ev Event) { s.Events = append(s.Events, ev) }

// discard is the no-op sink behind Discard: it keeps and counts nothing.
type discard struct{}

func (discard) Record(Event) {}

// Discard accepts and drops every event: the sink that exercises every
// trace site at no cost of its own, so tests can check that recording
// changes no result and allocates nothing.
var Discard Sink = discard{}

// AppendNDJSON appends one event as a single NDJSON line (including the
// trailing newline) in the committed trace-golden schema. Zero-valued
// optional fields are omitted; encoding uses no maps or reflection, so
// identical events always produce identical bytes.
func AppendNDJSON(dst []byte, run int, ev Event) []byte {
	dst = append(dst, `{"type":"event","run":`...)
	dst = strconv.AppendInt(dst, int64(run), 10)
	dst = append(dst, `,"t_ns":`...)
	dst = strconv.AppendInt(dst, int64(ev.T), 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, ev.Kind.String()...)
	dst = append(dst, `","node":`...)
	dst = strconv.AppendInt(dst, int64(ev.Node), 10)
	if ev.Peer >= 0 {
		dst = append(dst, `,"peer":`...)
		dst = strconv.AppendInt(dst, int64(ev.Peer), 10)
	}
	if ev.Origin != 0 || ev.Seq != 0 || ev.Kind.carriesPacket() {
		dst = append(dst, `,"origin":`...)
		dst = strconv.AppendInt(dst, int64(ev.Origin), 10)
		dst = append(dst, `,"seq":`...)
		dst = strconv.AppendUint(dst, uint64(ev.Seq), 10)
	}
	switch {
	case ev.Kind == KindDeath:
		// The death cause rides in Value; name it instead of emitting a
		// bare number. Churn deaths (the zero cause) keep their original
		// bytes with no cause field at all.
		if ev.Value == DeathCauseDepleted {
			dst = append(dst, `,"cause":"depleted"`...)
		}
	case ev.Value != 0:
		dst = append(dst, `,"value":`...)
		dst = strconv.AppendFloat(dst, ev.Value, 'g', -1, 64)
	}
	dst = append(dst, "}\n"...)
	return dst
}

// carriesPacket reports whether the kind's origin/seq fields identify a
// packet (and so are emitted even when zero — origin 0 / seq 0 is the
// source's first update, not "unset").
func (k Kind) carriesPacket() bool {
	switch k {
	case KindTxData, KindRxData, KindDuplicate, KindDeliver:
		return true
	}
	return false
}

// Provider hands out per-run sinks: the simulation asks once per run
// whether (and where) to trace. A nil Provider — and a nil Sink returned
// from BeginRun — both mean "don't trace".
type Provider interface {
	// BeginRun returns the sink for the given zero-based run index of the
	// point being simulated, or nil to leave the run untraced.
	BeginRun(run int) Sink
}

// discardProvider traces every run into Discard.
type discardProvider struct{}

func (discardProvider) BeginRun(int) Sink { return Discard }

// DiscardProvider traces every run into the Discard sink — full
// instrumentation cost, no retention. The trace-neutrality test runs every
// scenario under it.
var DiscardProvider Provider = discardProvider{}

// ctxKey carries the Provider through a context.
type ctxKey struct{}

// WithProvider returns a context carrying the trace provider; scenario
// points executed under it (ComputePoint → runNetPoint) trace their runs
// through the provider's sinks.
func WithProvider(ctx context.Context, p Provider) context.Context {
	return context.WithValue(ctx, ctxKey{}, p)
}

// ProviderFrom extracts the trace provider from ctx, or nil.
func ProviderFrom(ctx context.Context) Provider {
	p, _ := ctx.Value(ctxKey{}).(Provider)
	return p
}

// Collector is a Provider retaining every traced run's full stream in a
// slab — the `pbbf trace` subcommand's sink factory. MaxRuns caps how
// many runs are captured (0 = all); later runs go untraced.
type Collector struct {
	// MaxRuns bounds the number of captured runs; 0 captures every run.
	MaxRuns int

	mu   sync.Mutex
	runs []*Slab
}

// BeginRun implements Provider. BeginRun itself is safe for concurrent
// use; the returned slab is owned by the single run writing to it.
func (c *Collector) BeginRun(run int) Sink {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.MaxRuns > 0 && len(c.runs) >= c.MaxRuns {
		return nil
	}
	s := &Slab{Run: run}
	c.runs = append(c.runs, s)
	return s
}

// Runs returns the captured slabs in run order. Call only after every
// traced run has finished.
func (c *Collector) Runs() []*Slab {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}
