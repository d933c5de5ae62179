package protocol

import (
	"fmt"
	"strings"

	"pbbf/internal/match"
)

// Canonical protocol names. The empty string is the canonical spelling of
// the default: scenario keys, checkpoints, and the HTTP API all treat
// "no protocol named" and "pbbf" as the same identity (CanonicalName folds
// one onto the other), which is what keeps every pre-protocol-interface
// cache key and checkpoint valid.
const (
	NamePBBF       = "pbbf"
	NameSleepSched = "sleepsched"
	NameOLA        = "ola"
)

// Spec selects and parameterizes a protocol. The zero value selects PBBF
// with the MAC's configured Params — every configuration that predates the
// protocol interface is a valid zero Spec.
type Spec struct {
	// Name is the registered protocol name: "" or "pbbf", "sleepsched",
	// "ola".
	Name string

	// Adaptive, when non-nil, selects adaptive PBBF: each node starts at
	// its configured Params and adjusts p from overheard activity and q
	// from detected broadcast losses — the paper's future-work extension
	// (Section 6). PBBF only.
	Adaptive *AdaptiveConfig

	// WakePeriod is the sleepsched round-robin period W: node i is
	// scheduled awake in beacon interval F iff (F+i) mod W == 0. 0 means
	// the default (4).
	WakePeriod int
	// Repeats is how many consecutive beacon intervals a sleepsched
	// forwarder retransmits each packet; W repeats guarantee every
	// neighbor's scheduled wakeup overlaps one transmission. 0 means the
	// default (= WakePeriod).
	Repeats int

	// DecodeThreshold is the accumulated gain at which an OLA node decodes
	// a packet. 0 means the default (1.0 — one expected full-strength
	// reception).
	DecodeThreshold float64
	// RelayThreshold is the OLA boundary test: a node relays a decoded
	// packet iff its accumulated gain at decode time is below this value
	// (barely-decoded nodes sit at the decoding boundary and extend it;
	// saturated interior nodes stay quiet). 0 means the default (1.5).
	RelayThreshold float64
}

// CanonicalName folds a protocol name to its key spelling: trimmed,
// lower-cased, and with the PBBF default rendered as the empty string.
func CanonicalName(name string) string {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == NamePBBF {
		return ""
	}
	return name
}

// Canonical returns the spec's canonical name ("" for PBBF).
func (sp Spec) Canonical() string { return CanonicalName(sp.Name) }

// kind enumerates the protocol implementations a Spec can select; it
// indexes a node's Instances.
type kind int

const (
	kindPBBF kind = iota
	kindAdaptive
	kindSleepSched
	kindOLA
	numKinds
)

// kind resolves the spec to its implementation.
func (sp Spec) kind() (kind, error) {
	switch sp.Canonical() {
	case "":
		if sp.Adaptive != nil {
			return kindAdaptive, nil
		}
		return kindPBBF, nil
	case NameSleepSched:
		return kindSleepSched, nil
	case NameOLA:
		return kindOLA, nil
	}
	return 0, UnknownError(sp.Name)
}

// Validate checks the spec: a known name and in-range knobs.
func (sp Spec) Validate() error {
	k, err := sp.kind()
	if err != nil {
		return err
	}
	if sp.Adaptive != nil {
		if k != kindAdaptive {
			return fmt.Errorf("protocol: adaptive control tunes the PBBF coins and requires the pbbf protocol, got %q",
				sp.Name)
		}
		if err := sp.Adaptive.Validate(); err != nil {
			return err
		}
	}
	if sp.WakePeriod < 0 || sp.Repeats < 0 {
		return fmt.Errorf("protocol: sleepsched wake period %d / repeats %d must be non-negative",
			sp.WakePeriod, sp.Repeats)
	}
	if sp.DecodeThreshold < 0 || sp.RelayThreshold < 0 {
		return fmt.Errorf("protocol: ola thresholds decode=%v relay=%v must be non-negative",
			sp.DecodeThreshold, sp.RelayThreshold)
	}
	return nil
}

// Instances holds one node's protocol instances, at most one per
// implementation, so a pooled node reconfigured across runs reuses each
// stateful state machine instead of reallocating it. PBBF is stateless
// and shared by every node. The zero value is empty and ready.
type Instances [numKinds]Protocol

// Get returns the node's instance for a validated spec, creating it on
// first use. The caller must Reset it before use.
func (in *Instances) Get(sp Spec) (Protocol, error) {
	k, err := sp.kind()
	if err != nil {
		return nil, err
	}
	if in[k] == nil {
		switch k {
		case kindPBBF:
			in[k] = PBBF
		case kindAdaptive:
			in[k] = &adaptive{}
		case kindSleepSched:
			in[k] = &sleepSched{}
		case kindOLA:
			in[k] = &ola{}
		}
	}
	return in[k], nil
}

// SpecFor resolves a user-supplied protocol name (a -protocol flag, an
// HTTP request field, or Scale.Protocol) to its default spec. Unknown
// names fail with the registry's did-you-mean error.
func SpecFor(name string) (Spec, error) {
	c := CanonicalName(name)
	switch c {
	case "":
		return Spec{}, nil
	case NameSleepSched, NameOLA:
		return Spec{Name: c}, nil
	}
	return Spec{}, UnknownError(name)
}

// UnknownError builds the unknown-protocol error, with a did-you-mean
// suggestion when something registered is close — the same Levenshtein
// dialect scenario IDs use.
func UnknownError(name string) error {
	if close := match.Closest(name, Names(), 3); len(close) > 0 {
		return fmt.Errorf("protocol: unknown protocol %q (did you mean %s?)", name, strings.Join(close, ", "))
	}
	return fmt.Errorf("protocol: unknown protocol %q (known: %s)", name, strings.Join(Names(), ", "))
}

// Names returns the registered protocol names in documentation order.
func Names() []string {
	infos := Infos()
	names := make([]string, len(infos))
	for i, in := range infos {
		names[i] = in.Name
	}
	return names
}

// Knob documents one protocol parameter for the CLI and HTTP metadata.
type Knob struct {
	Name    string  `json:"name"`
	Desc    string  `json:"desc"`
	Default float64 `json:"default"`
}

// Info is one protocol's metadata: what GET /v1/protocols and `pbbf -list`
// show.
type Info struct {
	// Name is the registered name (the -protocol flag value).
	Name string `json:"name"`
	// Title is the one-line human name.
	Title string `json:"title"`
	// Summary describes the scheme and its energy-latency position.
	Summary string `json:"summary"`
	// Knobs documents the spec fields the protocol reads.
	Knobs []Knob `json:"knobs,omitempty"`
}

// Infos returns every registered protocol's metadata in documentation
// order, PBBF (the default) first.
func Infos() []Info {
	return []Info{
		{
			Name:  NamePBBF,
			Title: "Probability-Based Broadcast Forwarding (the paper's protocol; default)",
			Summary: "802.11 PSM with two coins: rebroadcast immediately with probability p, " +
				"stay awake past the ATIM window with probability q. (p,q) spans PSM (0,0) to always-on (1,1).",
			Knobs: []Knob{
				{Name: "p", Desc: "immediate-rebroadcast probability (from the PBBF params, not the spec)", Default: 0},
				{Name: "q", Desc: "stay-awake probability (from the PBBF params, not the spec)", Default: 0},
			},
		},
		{
			Name:  NameSleepSched,
			Title: "Sleep-scheduled broadcast (after King et al., \"Sleeping on the Job\")",
			Summary: "Nodes wake every W-th beacon interval on a staggered round-robin schedule; forwarders " +
				"repeat each packet for W consecutive intervals so every neighbor's wakeup sees a copy. " +
				"Duty-cycle-bounded energy, O(W) intervals of latency per hop.",
			Knobs: []Knob{
				{Name: "wake_period", Desc: "round-robin period W in beacon intervals", Default: defaultWakePeriod},
				{Name: "repeats", Desc: "consecutive intervals a forwarder retransmits (default W)", Default: defaultWakePeriod},
			},
		},
		{
			Name:  NameOLA,
			Title: "Opportunistic large array (after Kailas et al., cooperative energy accumulation)",
			Summary: "Always-awake receivers accumulate gain from every overheard copy and decode at a threshold; " +
				"only boundary nodes (accumulated gain below the relay threshold at decode time) retransmit. " +
				"Near-flooding latency at always-on energy, with relay count throttled by the threshold.",
			Knobs: []Knob{
				{Name: "decode_threshold", Desc: "accumulated gain needed to decode a packet", Default: defaultDecodeThreshold},
				{Name: "relay_threshold", Desc: "relay iff accumulated gain at decode time is below this", Default: defaultRelayThreshold},
			},
		},
	}
}
