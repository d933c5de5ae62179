package netsim

import (
	"reflect"
	"testing"

	"pbbf/internal/protocol"
	"pbbf/internal/raceflag"
	"pbbf/internal/trace"
)

// TestTraceNeutrality: attaching a trace sink must not change anything the
// simulation computes — recording draws no randomness and mutates no
// state — and a pool reused across configs must emit the exact event
// stream of a fresh one for the same Config.
func TestTraceNeutrality(t *testing.T) {
	pool := NewRunPool()
	for i, cfg := range poolTestConfigs(t) {
		baseline, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: untraced run: %v", i, err)
		}

		var freshSlab trace.Slab
		traced := cfg
		traced.MAC.Trace = &freshSlab
		got, err := Run(traced)
		if err != nil {
			t.Fatalf("config %d: traced run: %v", i, err)
		}
		if !reflect.DeepEqual(baseline, got) {
			t.Errorf("config %d: tracing changed the result\nuntraced: %+v\ntraced:   %+v", i, baseline, got)
		}
		if len(freshSlab.Events) == 0 {
			t.Fatalf("config %d: traced run recorded no events", i)
		}

		var reusedSlab trace.Slab
		traced.MAC.Trace = &reusedSlab
		if _, err := pool.Run(traced); err != nil {
			t.Fatalf("config %d: reused-pool traced run: %v", i, err)
		}
		if !reflect.DeepEqual(freshSlab.Events, reusedSlab.Events) {
			t.Errorf("config %d: reused pool emits a different event stream (%d vs %d events)",
				i, len(reusedSlab.Events), len(freshSlab.Events))
		}
	}
}

// TestTraceNilSinkAllocFree: the nil-sink fast path must add zero
// allocations — a steady-state pooled run with tracing disabled allocates
// exactly as much as one recording into the global Discard sink. Events
// are passed by value through a pre-bound sink interface, so the
// instrumentation itself never touches the heap. Each protocol's hooks and
// the churn path have trace sites of their own, so each gets a config.
func TestTraceNilSinkAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are meaningless under -race")
	}
	cfgs := poolTestConfigs(t)
	sleep, ola := cfgs[0], cfgs[0]
	sleep.MAC.Protocol = protocol.Spec{Name: protocol.NameSleepSched}
	ola.MAC.Protocol = protocol.Spec{Name: protocol.NameOLA, RelayThreshold: 10}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"pbbf", cfgs[0]},
		{"sleepsched", sleep},
		{"ola", ola},
		{"churn", cfgs[3]},
	} {
		pool := NewRunPool()
		allocs := func(cfg Config) float64 {
			if _, err := pool.Run(cfg); err != nil { // warm the pool
				t.Fatal(err)
			}
			return testing.AllocsPerRun(5, func() {
				if _, err := pool.Run(cfg); err != nil {
					t.Fatal(err)
				}
			})
		}
		traced := tc.cfg
		traced.MAC.Trace = trace.Discard
		if nilAllocs, discardAllocs := allocs(tc.cfg), allocs(traced); nilAllocs != discardAllocs {
			t.Errorf("%s: tracing machinery allocates: %.0f allocs/run untraced vs %.0f with the discard sink",
				tc.name, nilAllocs, discardAllocs)
		}
	}
}
