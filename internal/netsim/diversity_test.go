package netsim

import (
	"reflect"
	"testing"

	"pbbf/internal/core"
	"pbbf/internal/mac"
)

func TestDiversityConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Loss.LinkMean = -0.1 },
		func(c *Config) { c.Loss.LinkMean = 0.5 },
		func(c *Config) { c.Churn.FailFraction = -0.1 },
		func(c *Config) { c.Churn.FailFraction = 1 },
		func(c *Config) { c.Hetero.QSpread = -1 },
		func(c *Config) { c.Hetero.PSpread = 2 },
	}
	for i, mutate := range mutations {
		cfg := scenario(t, core.PSM(), 20, 10, 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
	}
	ok := scenario(t, core.PSM(), 20, 10, 1)
	ok.Loss.LinkMean = 0.3
	ok.Churn.FailFraction = 0.5
	ok.Hetero = mac.HeteroConfig{QSpread: 0.2}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChurnKillsExpectedCount(t *testing.T) {
	cfg := scenario(t, core.Params{P: 0.5, Q: 0.5}, 30, 10, 7)
	cfg.Churn.FailFraction = 0.3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frac := 0.3
	want := int(frac*float64(30-1) + 0.5)
	if res.NodesDied != want {
		t.Fatalf("NodesDied=%d, want %d", res.NodesDied, want)
	}
	if res.UpdatesGenerated == 0 {
		t.Fatal("source generated nothing — was the source killed?")
	}
}

func TestChurnReducesReliability(t *testing.T) {
	stable := scenario(t, core.Params{P: 0.5, Q: 0.25}, 30, 10, 11)
	resStable, err := Run(stable)
	if err != nil {
		t.Fatal(err)
	}
	churning := scenario(t, core.Params{P: 0.5, Q: 0.25}, 30, 10, 11)
	churning.Churn.FailFraction = 0.4
	resChurn, err := Run(churning)
	if err != nil {
		t.Fatal(err)
	}
	if resChurn.NodesDied == 0 {
		t.Fatal("no node died at 40% churn")
	}
	if resChurn.UpdatesReceivedFraction > resStable.UpdatesReceivedFraction+0.01 {
		t.Fatalf("churn improved reliability: %v -> %v",
			resStable.UpdatesReceivedFraction, resChurn.UpdatesReceivedFraction)
	}
}

func TestLinkLossReducesReliability(t *testing.T) {
	clean := scenario(t, core.Params{P: 0.5, Q: 0.25}, 30, 10, 13)
	resClean, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	lossy := scenario(t, core.Params{P: 0.5, Q: 0.25}, 30, 10, 13)
	lossy.Loss.LinkMean = 0.4
	resLossy, err := Run(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if resLossy.UpdatesReceivedFraction > resClean.UpdatesReceivedFraction+0.01 {
		t.Fatalf("40%% mean link loss improved reliability: %v -> %v",
			resClean.UpdatesReceivedFraction, resLossy.UpdatesReceivedFraction)
	}
}

// TestDiversityRunsDeterministic: every new model is replayable — two runs
// of the same seeded config produce identical Results, the property the
// serial-vs-parallel and distributed CI byte-diffs extend to whole sweeps.
func TestDiversityRunsDeterministic(t *testing.T) {
	build := func() Config {
		cfg := scenario(t, core.Params{P: 0.5, Q: 0.25}, 30, 10, 17)
		cfg.Loss.LinkMean = 0.2
		cfg.Churn.FailFraction = 0.2
		cfg.Hetero = mac.HeteroConfig{QSpread: 0.2}
		return cfg
	}
	a, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(build())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestHeteroZeroSpreadMatchesHomogeneous: a zero-spread hetero config must
// reproduce the homogeneous run bit for bit (the conditional split rule:
// disabled features consume no randomness).
func TestHeteroZeroSpreadMatchesHomogeneous(t *testing.T) {
	base, err := Run(scenario(t, core.Params{P: 0.5, Q: 0.25}, 25, 10, 19))
	if err != nil {
		t.Fatal(err)
	}
	withZero := scenario(t, core.Params{P: 0.5, Q: 0.25}, 25, 10, 19)
	withZero.Hetero = mac.HeteroConfig{}
	got, err := Run(withZero)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatal("zero-valued hetero config perturbed the run")
	}
}

// TestHeteroSpreadChangesRun: a real spread must actually change per-node
// behaviour relative to the homogeneous run.
func TestHeteroSpreadChangesRun(t *testing.T) {
	base, err := Run(scenario(t, core.Params{P: 0.5, Q: 0.5}, 25, 10, 23))
	if err != nil {
		t.Fatal(err)
	}
	spread := scenario(t, core.Params{P: 0.5, Q: 0.5}, 25, 10, 23)
	spread.Hetero = mac.HeteroConfig{QSpread: 0.4}
	got, err := Run(spread)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(base, got) {
		t.Fatal("q jitter of ±0.4 left the run untouched")
	}
}
