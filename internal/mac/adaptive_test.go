package mac

import (
	"testing"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/energy"
	"pbbf/internal/protocol"
)

// The adaptive controller itself is tested in internal/protocol; these
// tests drive adaptive PBBF through the MAC and check what it does to the
// radio.

func adaptiveConfig(params core.Params) Config {
	cfg := DefaultConfig(params)
	ac := protocol.DefaultAdaptiveConfig()
	cfg.Protocol = protocol.Spec{Adaptive: &ac}
	return cfg
}

func TestAdaptiveConfigValidated(t *testing.T) {
	cfg := DefaultConfig(core.PSM())
	bad := protocol.DefaultAdaptiveConfig()
	bad.Step = -1
	cfg.Protocol = protocol.Spec{Adaptive: &bad}
	if err := cfg.Validate(); err == nil {
		t.Fatal("invalid adaptive config accepted")
	}
}

// TestParamsStaticVsAdaptive: Params is the node's configuration under
// both specs — the adaptive controller starts from it and keeps its live
// values to itself.
func TestParamsStaticVsAdaptive(t *testing.T) {
	want := core.Params{P: 0.3, Q: 0.4}
	static := newHarness(t, 2, 1, DefaultConfig(want), 1)
	if got := static.nodes[0].Params(); got != want {
		t.Fatalf("static params = %+v", got)
	}
	adaptive := newHarness(t, 2, 1, adaptiveConfig(want), 1)
	adaptive.run(5 * adaptive.cfg.Timing.Frame)
	if got := adaptive.nodes[0].Params(); got != want {
		t.Fatalf("adaptive node params = %+v, want the configuration %+v", got, want)
	}
}

// TestAdaptiveQuietNetworkLowersP: 20 beacon intervals with no traffic
// walk p down to 0, so a burst originated afterwards goes out entirely
// through ATIM announcements; a static node at the same p and seed sends
// part of it immediately.
func TestAdaptiveQuietNetworkLowersP(t *testing.T) {
	immediate := func(cfg Config) int {
		h := newHarness(t, 3, 3, cfg, 2)
		at := 20*cfg.Timing.Frame + cfg.Timing.Active + time.Millisecond
		h.kernel.ScheduleAt(at, func() {
			for seq := uint64(0); seq < 10; seq++ {
				h.nodes[4].Broadcast(Packet{Key: PacketKeyFor(4, seq)})
			}
		})
		h.run(at + time.Millisecond)
		return h.nodes[4].Stats().ImmediateSent
	}
	start := core.Params{P: 0.5, Q: 0.25}
	if got := immediate(adaptiveConfig(start)); got != 0 {
		t.Fatalf("adaptive node sent %d of 10 immediately after a quiet spell, want 0", got)
	}
	if got := immediate(DefaultConfig(start)); got == 0 {
		t.Fatal("static node at p=0.5 sent nothing immediately; the contrast shows nothing")
	}
}

// TestAdaptiveGapRaisesQ: a neighbor starting at q=1 that sees sequence
// gaps keeps q pinned and never sleeps; the same neighbor fed as many
// packets without gaps lets q decay and sleeps through some quiet
// intervals.
func TestAdaptiveGapRaisesQ(t *testing.T) {
	cfg := adaptiveConfig(core.Params{P: 0, Q: 1})
	end := 40 * cfg.Timing.Frame
	sleep := func(seqs []uint64) time.Duration {
		h := newHarness(t, 2, 1, cfg, 3)
		for i, seq := range seqs {
			h.kernel.ScheduleAt(time.Duration(i)*cfg.Timing.Frame, func() {
				h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, seq)})
			})
		}
		h.run(end)
		if len(h.got[1]) != len(seqs) {
			t.Fatalf("neighbor deliveries = %d, want %d", len(h.got[1]), len(seqs))
		}
		h.nodes[1].FinishMetering(end)
		return h.nodes[1].TimeIn(energy.Sleep)
	}
	if got := sleep([]uint64{0, 2, 4, 6, 8, 10}); got != 0 {
		t.Fatalf("neighbor slept %v despite sequence gaps", got)
	}
	if got := sleep([]uint64{0, 1, 2, 3, 4, 5}); got == 0 {
		t.Fatal("neighbor never slept on a clean stream: q did not decay")
	}
}

// TestAdaptiveDeterministic: identical seeds give identical adaptive runs,
// counter for counter and joule for joule.
func TestAdaptiveDeterministic(t *testing.T) {
	type outcome struct {
		stats  Stats
		energy float64
	}
	run := func() []outcome {
		cfg := adaptiveConfig(core.Params{P: 0.25, Q: 0.25})
		h := newHarness(t, 3, 3, cfg, 9)
		h.kernel.ScheduleAt(0, func() {
			h.nodes[4].Broadcast(Packet{Key: PacketKeyFor(4, 0)})
		})
		end := 10 * cfg.Timing.Frame
		h.run(end)
		out := make([]outcome, len(h.nodes))
		for i, n := range h.nodes {
			out[i] = outcome{n.Stats(), n.EnergyAt(end)}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d: adaptive runs with identical seeds diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestFramesDecodedCountsATIMs: the activity count protocols read covers
// every decoded frame, ATIM announcements included, not only data.
func TestFramesDecodedCountsATIMs(t *testing.T) {
	cfg := DefaultConfig(core.PSM())
	h := newHarness(t, 2, 1, cfg, 4)
	h.kernel.ScheduleAt(0, func() {
		h.nodes[0].Broadcast(Packet{Key: PacketKeyFor(0, 0)})
	})
	h.run(3 * cfg.Timing.Frame)
	st := h.nodes[1].Stats()
	if st.ATIMReceived == 0 || st.DataReceived == 0 {
		t.Fatalf("neighbor decoded ATIM=%d data=%d, want both", st.ATIMReceived, st.DataReceived)
	}
	if got := h.nodes[1].FramesDecoded(); got != st.ATIMReceived+st.DataReceived {
		t.Fatalf("FramesDecoded = %d, want ATIM %d + data %d", got, st.ATIMReceived, st.DataReceived)
	}
}
