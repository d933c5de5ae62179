package netsim

import (
	"math"
	"testing"
	"time"

	"pbbf/internal/energy"
)

// TestPooledRunConservation checks accounting invariants on every node
// after a pooled run, over every feature path of poolTestConfigs: the four
// radio-state times partition the run exactly, the joules a node reports
// equal its state times priced at the profile's power, and no node
// receives more updates than the source generated. A radio decision that
// moves without its energy transition breaks the first two.
func TestPooledRunConservation(t *testing.T) {
	pool := NewRunPool()
	for i, cfg := range poolTestConfigs(t) {
		res, err := pool.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if res.UpdatesReceivedFraction > 1 {
			t.Errorf("config %d: received fraction %v above 1", i, res.UpdatesReceivedFraction)
		}
		for id, node := range pool.fleet.Nodes() {
			var total time.Duration
			var joules float64
			for s := energy.Sleep; s <= energy.Transmit; s++ {
				total += node.TimeIn(s)
				joules += node.TimeIn(s).Seconds() * cfg.MAC.Profile.Power(s)
			}
			if total != cfg.Duration {
				t.Errorf("config %d node %d: state times sum to %v, want %v", i, id, total, cfg.Duration)
			}
			if got := node.EnergyAt(cfg.Duration); math.Abs(joules-got) > 1e-9*got {
				t.Errorf("config %d node %d: EnergyAt %v J, state times price to %v J", i, id, got, joules)
			}
			if got := pool.trackers[id].Received(); got > res.UpdatesGenerated {
				t.Errorf("config %d node %d: received %d of %d generated updates", i, id, got, res.UpdatesGenerated)
			}
		}
	}
}
