package protocol

import (
	"testing"
	"time"

	"pbbf/internal/core"
	"pbbf/internal/rng"
	"pbbf/internal/topo"
)

// fakeNode is a NodeAPI that records what the protocol asks of it; tests
// set its configured params and decoded-frame count directly.
type fakeNode struct {
	params    core.Params
	decoded   int
	r         *rng.Source
	delivered int
	sentNow   int
	announced int
}

func (f *fakeNode) ID() topo.NodeID    { return 0 }
func (f *fakeNode) Now() time.Duration { return 0 }
func (f *fakeNode) Rand() *rng.Source  { return f.r }
func (f *fakeNode) Timing() core.Timing {
	return core.Timing{Active: time.Second, Frame: 10 * time.Second}
}
func (f *fakeNode) Params() core.Params              { return f.params }
func (f *fakeNode) FramesDecoded() int               { return f.decoded }
func (f *fakeNode) SendNow(Packet)                   { f.sentNow++ }
func (f *fakeNode) Send(Packet)                      {}
func (f *fakeNode) Announce(Packet)                  { f.announced++ }
func (f *fakeNode) DeliverToApp(Packet, topo.NodeID) { f.delivered++ }
func (f *fakeNode) SetAwake(bool)                    {}
func (f *fakeNode) StayThisFrame()                   {}
func (f *fakeNode) ScheduleTimer(time.Duration, int) {}
func (f *fakeNode) TxSlack() time.Duration           { return 0 }

// startAdaptive resets an adaptive PBBF instance on a fake node configured
// at params.
func startAdaptive(t *testing.T, params core.Params) (*adaptive, *fakeNode) {
	t.Helper()
	cfg := DefaultAdaptiveConfig()
	spec := Spec{Adaptive: &cfg}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	var in Instances
	p, err := in.Get(spec)
	if err != nil {
		t.Fatal(err)
	}
	node := &fakeNode{params: params, r: rng.New(1)}
	if err := p.Reset(node, spec); err != nil {
		t.Fatal(err)
	}
	return p.(*adaptive), node
}

// frame ends one beacon interval in which the node decoded k frames.
func frame(a *adaptive, node *fakeNode, k int) {
	node.decoded += k
	a.OnFrameStart(node)
}

// receive hands the node the first copy of origin 1's packet seq.
func receive(a *adaptive, node *fakeNode, seq uint64) {
	a.OnReceive(node, Packet{Key: core.PacketKey{Origin: 1, Seq: seq}}, 1, true)
}

// start is the reliability-safe corner the adaptive tests begin from.
var start = core.Params{P: 0.25, Q: 0.5}

// TestAdaptiveSpecValidate: adaptive control is accepted on PBBF, named or
// by default. The config's own bounds are checked in internal/core's
// TestAdaptiveConfigValidate.
func TestAdaptiveSpecValidate(t *testing.T) {
	def := DefaultAdaptiveConfig()
	for _, sp := range []Spec{{Adaptive: &def}, {Name: NamePBBF, Adaptive: &def}} {
		if err := sp.Validate(); err != nil {
			t.Errorf("valid spec %+v rejected: %v", sp, err)
		}
	}
	// Adaptive control tunes the PBBF coins; rival protocols have none.
	for _, name := range []string{NameSleepSched, NameOLA} {
		if err := (Spec{Name: name, Adaptive: &def}).Validate(); err == nil {
			t.Errorf("adaptive %s accepted", name)
		}
	}
}

// TestAdaptiveStartsFromConfiguredParams: Reset starts the controller at
// the node's configured operating point and clears the previous run's
// sequence history.
func TestAdaptiveStartsFromConfiguredParams(t *testing.T) {
	a, node := startAdaptive(t, core.Params{P: 0.3, Q: 0.7})
	if a.params != node.params {
		t.Fatalf("controller starts at %+v, want the configured %+v", a.params, node.params)
	}
	receive(a, node, 5)
	node.params = core.Params{P: 0.1, Q: 0.2}
	cfg := DefaultAdaptiveConfig()
	if err := a.Reset(node, Spec{Adaptive: &cfg}); err != nil {
		t.Fatal(err)
	}
	if a.params != node.params || a.lastSeq != 0 || a.seenAny {
		t.Fatalf("reset kept state: params %+v, last seq %d (seen any: %v)", a.params, a.lastSeq, a.seenAny)
	}
}

func TestAdaptiveRaisesPUnderActivity(t *testing.T) {
	a, node := startAdaptive(t, start)
	for i := 0; i < 50; i++ {
		frame(a, node, 10) // far above target
	}
	if a.params.P <= start.P {
		t.Fatalf("p did not rise: %v -> %v", start.P, a.params.P)
	}
	if a.params.P > 1 {
		t.Fatalf("p exceeded 1: %v", a.params.P)
	}
}

func TestAdaptiveLowersPWhenQuiet(t *testing.T) {
	a, node := startAdaptive(t, start)
	for i := 0; i < 50; i++ {
		frame(a, node, 0)
	}
	if a.params.P >= start.P {
		t.Fatalf("p did not fall: %v -> %v", start.P, a.params.P)
	}
	if a.params.P < 0 {
		t.Fatalf("p below 0: %v", a.params.P)
	}
}

// TestAdaptiveRaisesQUnderLoss: every delivery reveals a gap of missed
// sequence numbers, so q climbs.
func TestAdaptiveRaisesQUnderLoss(t *testing.T) {
	a, node := startAdaptive(t, start)
	for i := uint64(0); i < 50; i++ {
		receive(a, node, 10*i)
	}
	if a.params.Q <= start.Q {
		t.Fatalf("q did not rise under loss: %v -> %v", start.Q, a.params.Q)
	}
	if a.params.Q > 1 {
		t.Fatalf("q exceeded 1: %v", a.params.Q)
	}
	if node.delivered != 50 {
		t.Fatalf("delivered %d of 50 first copies", node.delivered)
	}
}

func TestAdaptiveLowersQWhenClean(t *testing.T) {
	a, node := startAdaptive(t, start)
	for i := uint64(0); i < 200; i++ {
		receive(a, node, i)
	}
	if a.params.Q >= start.Q {
		t.Fatalf("q did not decay on clean delivery: %v", a.params.Q)
	}
	if a.params.Q < 0 {
		t.Fatalf("q below 0: %v", a.params.Q)
	}
}

// TestAdaptiveCoinsReadLiveParams: the p coin reads the controller's
// operating point, not the node's configuration.
func TestAdaptiveCoinsReadLiveParams(t *testing.T) {
	a, node := startAdaptive(t, core.Params{P: 0, Q: 0})
	for i := 0; i < 40; i++ {
		frame(a, node, 10) // p climbs to 1
	}
	if a.params.P != 1 {
		t.Fatalf("p = %v after sustained activity, want 1", a.params.P)
	}
	for seq := uint64(0); seq < 10; seq++ {
		a.OnOriginate(node, Packet{Key: core.PacketKey{Seq: seq}})
	}
	if node.sentNow != 10 || node.announced != 0 {
		t.Fatalf("at live p=1: %d immediate, %d announced; want 10, 0", node.sentNow, node.announced)
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	run := func() (core.Params, int) {
		a, node := startAdaptive(t, start)
		for i := uint64(0); i < 100; i++ {
			frame(a, node, int(i%5))
			receive(a, node, i+i/7)
			a.OnWindowEnd(node)
		}
		return a.params, node.sentNow
	}
	p1, sent1 := run()
	p2, sent2 := run()
	if p1 != p2 || sent1 != sent2 {
		t.Fatalf("identical inputs diverged: %+v/%d vs %+v/%d", p1, sent1, p2, sent2)
	}
}

func TestAdaptiveParamsAlwaysValid(t *testing.T) {
	a, node := startAdaptive(t, start)
	seq := uint64(0)
	for i := 0; i < 500; i++ {
		frame(a, node, i%7)
		if i%3 == 0 {
			seq++ // a gap: one broadcast missed
		}
		seq++
		receive(a, node, seq)
		if err := a.params.Validate(); err != nil {
			t.Fatalf("params became invalid at step %d: %v", i, err)
		}
	}
	if a.activity < 0 || a.loss < 0 || a.loss > 1 {
		t.Fatalf("observations out of range: activity=%v loss=%v", a.activity, a.loss)
	}
}
