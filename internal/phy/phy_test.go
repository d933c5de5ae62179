package phy

import (
	"testing"
	"time"

	"pbbf/internal/sim"
	"pbbf/internal/topo"
)

// stubReceiver records deliveries; radio state lives in the channel and is
// toggled with Channel.SetListening.
type stubReceiver struct {
	got []Frame
}

func (s *stubReceiver) Deliver(f Frame) { s.got = append(s.got, f) }

// line3 builds a 3-node line topology 0-1-2 (grid 3×1).
func line3(t *testing.T) (*sim.Kernel, *Channel, []*stubReceiver) {
	t.Helper()
	g := topo.MustGrid(3, 1)
	k := sim.NewKernel()
	c := NewChannel(k, g)
	rx := make([]*stubReceiver, 3)
	for i := range rx {
		rx[i] = &stubReceiver{}
		c.Register(topo.NodeID(i), rx[i])
	}
	return k, c, rx
}

func TestDeliveryToNeighbors(t *testing.T) {
	k, c, rx := line3(t)
	err := c.Transmit(Frame{Sender: 1, Payload: "hello", Airtime: 10 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	// Node 1's neighbors are 0 and 2.
	for _, id := range []int{0, 2} {
		if len(rx[id].got) != 1 || rx[id].got[0].Payload != "hello" {
			t.Fatalf("node %d got %v", id, rx[id].got)
		}
	}
	if len(rx[1].got) != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestNoDeliveryOutOfRange(t *testing.T) {
	k, c, rx := line3(t)
	if err := c.Transmit(Frame{Sender: 0, Airtime: time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(rx[2].got) != 0 {
		t.Fatal("node 2 heard a 2-hop transmission")
	}
	if len(rx[1].got) != 1 {
		t.Fatal("node 1 missed an in-range transmission")
	}
}

func TestSleepingReceiverMissesFrame(t *testing.T) {
	k, c, rx := line3(t)
	c.SetListening(0, false)
	if err := c.Transmit(Frame{Sender: 1, Airtime: time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(rx[0].got) != 0 {
		t.Fatal("sleeping node received a frame")
	}
	if len(rx[2].got) != 1 {
		t.Fatal("awake node missed the frame")
	}
}

func TestWakeMidFrameStillMisses(t *testing.T) {
	k, c, rx := line3(t)
	c.SetListening(0, false)
	if err := c.Transmit(Frame{Sender: 1, Airtime: 10 * time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	k.Schedule(5*time.Millisecond, func() { c.SetListening(0, true) })
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(rx[0].got) != 0 {
		t.Fatal("node that woke mid-frame decoded it")
	}
}

func TestSleepMidFrameLosesFrame(t *testing.T) {
	k, c, rx := line3(t)
	if err := c.Transmit(Frame{Sender: 1, Airtime: 10 * time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	k.Schedule(5*time.Millisecond, func() { c.SetListening(0, false) })
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(rx[0].got) != 0 {
		t.Fatal("node that slept mid-frame decoded it")
	}
}

func TestCollisionAtSharedReceiver(t *testing.T) {
	// 0 and 2 both transmit; node 1 hears both and decodes neither.
	k, c, rx := line3(t)
	if err := c.Transmit(Frame{Sender: 0, Airtime: 10 * time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	k.Schedule(2*time.Millisecond, func() {
		if err := c.Transmit(Frame{Sender: 2, Airtime: 10 * time.Millisecond}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(rx[1].got) != 0 {
		t.Fatalf("node 1 decoded despite collision: %v", rx[1].got)
	}
	_, _, collided := c.Stats()
	if collided == 0 {
		t.Fatal("collision not counted")
	}
}

func TestHiddenTerminal(t *testing.T) {
	// Line of 5: nodes 0 and 2 are hidden from each other w.r.t. node 1.
	g := topo.MustGrid(5, 1)
	k := sim.NewKernel()
	c := NewChannel(k, g)
	rx := make([]*stubReceiver, 5)
	for i := range rx {
		rx[i] = &stubReceiver{}
		c.Register(topo.NodeID(i), rx[i])
	}
	if err := c.Transmit(Frame{Sender: 0, Airtime: 10 * time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	k.Schedule(time.Millisecond, func() {
		// Node 2 senses idle (node 0 is out of its range) and transmits,
		// colliding at node 1 but delivering cleanly to node 3.
		if c.CarrierBusy(2) {
			t.Fatal("node 2 should not sense node 0")
		}
		if err := c.Transmit(Frame{Sender: 2, Airtime: 10 * time.Millisecond}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(rx[1].got) != 0 {
		t.Fatal("hidden-terminal collision not detected at node 1")
	}
	if len(rx[3].got) != 1 {
		t.Fatal("node 3 should have decoded node 2's frame")
	}
}

func TestCarrierBusyDuringTransmission(t *testing.T) {
	k, c, _ := line3(t)
	if err := c.Transmit(Frame{Sender: 0, Airtime: 10 * time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	k.Schedule(5*time.Millisecond, func() {
		if !c.CarrierBusy(1) {
			t.Fatal("neighbor does not sense ongoing transmission")
		}
		if !c.CarrierBusy(0) {
			t.Fatal("sender does not sense its own transmission")
		}
	})
	k.Schedule(15*time.Millisecond, func() {
		if c.CarrierBusy(1) || c.CarrierBusy(0) {
			t.Fatal("carrier still busy after airtime")
		}
	})
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleTransmitRejected(t *testing.T) {
	_, c, _ := line3(t)
	if err := c.Transmit(Frame{Sender: 0, Airtime: 10 * time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Transmit(Frame{Sender: 0, Airtime: time.Millisecond}, nil); err == nil {
		t.Fatal("concurrent transmit from one node accepted")
	}
}

func TestZeroAirtimeRejected(t *testing.T) {
	_, c, _ := line3(t)
	if err := c.Transmit(Frame{Sender: 0, Airtime: 0}, nil); err == nil {
		t.Fatal("zero airtime accepted")
	}
}

func TestOnDoneRunsAfterDeliveries(t *testing.T) {
	k, c, rx := line3(t)
	doneSeen := false
	err := c.Transmit(Frame{Sender: 1, Airtime: time.Millisecond}, func() {
		doneSeen = true
		if len(rx[0].got) != 1 {
			t.Fatal("onDone ran before delivery")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if !doneSeen {
		t.Fatal("onDone never ran")
	}
}

func TestBackToBackFramesBothDeliver(t *testing.T) {
	k, c, rx := line3(t)
	if err := c.Transmit(Frame{Sender: 1, Payload: 1, Airtime: 5 * time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	k.Schedule(6*time.Millisecond, func() {
		if err := c.Transmit(Frame{Sender: 1, Payload: 2, Airtime: 5 * time.Millisecond}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(rx[0].got) != 2 {
		t.Fatalf("node 0 got %d frames, want 2", len(rx[0].got))
	}
	started, delivered, collided := c.Stats()
	if started != 2 || collided != 0 {
		t.Fatalf("stats: started=%d collided=%d", started, collided)
	}
	if delivered != 4 { // two frames × two neighbors
		t.Fatalf("delivered = %d, want 4", delivered)
	}
}

func TestTransmittingNodeCannotReceive(t *testing.T) {
	// Nodes 0 and 1 transmit simultaneously: neither decodes the other.
	k, c, rx := line3(t)
	if err := c.Transmit(Frame{Sender: 0, Airtime: 10 * time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	// The channel itself knows node 1 is transmitting, so no stub state is
	// needed: a transmitting radio never decodes.
	if err := c.Transmit(Frame{Sender: 1, Airtime: 10 * time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if len(rx[1].got) != 0 {
		t.Fatal("transmitting node decoded a frame")
	}
}

func TestSenderResendsAfterCollision(t *testing.T) {
	// 0 and 2 overlap at node 1; 0's frame ends first, then 2's. Node 0
	// then sends a second frame alone: node 1 decodes exactly that frame,
	// with its own payload, and nothing of the collided pair.
	k, c, rx := line3(t)
	if err := c.Transmit(Frame{Sender: 0, Payload: "a1", Airtime: 10 * time.Millisecond}, nil); err != nil {
		t.Fatal(err)
	}
	k.Schedule(2*time.Millisecond, func() {
		if err := c.Transmit(Frame{Sender: 2, Payload: "b", Airtime: 10 * time.Millisecond}, nil); err != nil {
			t.Fatal(err)
		}
	})
	k.Schedule(15*time.Millisecond, func() {
		if err := c.Transmit(Frame{Sender: 0, Payload: "a2", Airtime: 10 * time.Millisecond}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := k.RunUntilIdle(); err != nil {
		t.Fatal(err)
	}
	if got := rx[1].got; len(got) != 1 || got[0].Sender != 0 || got[0].Payload != "a2" {
		t.Fatalf("node 1 got %v, want only node 0's second frame", got)
	}
	// Node 1 is the only receiver: a1 collides, b was never decodable
	// (the channel was already busy when it started), a2 is delivered.
	if started, delivered, collided := c.Stats(); started != 3 || delivered != 1 || collided != 1 {
		t.Fatalf("stats: started=%d delivered=%d collided=%d", started, delivered, collided)
	}
}
