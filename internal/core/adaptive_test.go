package core_test

import (
	"testing"

	"pbbf/internal/protocol"
)

// Adaptive PBBF's controller lives in internal/protocol; these tests pin
// the checks its configuration must pass before any node starts it.

// badAdaptiveConfigs each push one knob out of range.
var badAdaptiveConfigs = []func(*protocol.AdaptiveConfig){
	func(c *protocol.AdaptiveConfig) { c.Step = 0 },
	func(c *protocol.AdaptiveConfig) { c.Step = -1 },
	func(c *protocol.AdaptiveConfig) { c.Step = 1.5 },
	func(c *protocol.AdaptiveConfig) { c.Alpha = 0 },
	func(c *protocol.AdaptiveConfig) { c.ActivityTarget = -1 },
	func(c *protocol.AdaptiveConfig) { c.LossTarget = 1 },
}

func TestAdaptiveConfigValidate(t *testing.T) {
	if err := protocol.DefaultAdaptiveConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for i, mutate := range badAdaptiveConfigs {
		cfg := protocol.DefaultAdaptiveConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestNewAdaptiveControllerRejectsBadConfig: a bad config fails the spec
// check that every node runs before it builds its adaptive instance.
func TestNewAdaptiveControllerRejectsBadConfig(t *testing.T) {
	for i, mutate := range badAdaptiveConfigs {
		cfg := protocol.DefaultAdaptiveConfig()
		mutate(&cfg)
		if err := (protocol.Spec{Adaptive: &cfg}).Validate(); err == nil {
			t.Errorf("spec with bad config %d accepted", i)
		}
	}
}
