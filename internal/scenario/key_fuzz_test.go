package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzPointKeyRoundTrip drives the point-identity machinery with arbitrary
// scenario IDs, point coordinates, and scale mutations: a spec built from
// any inputs must verify against its own key, survive a JSON round trip
// (the wire format of the distributed sweep) with its identity intact, and
// reject a tampered key. This is the property the result cache, resumable
// checkpoints, and coordinator/worker dispatch all lean on.
func FuzzPointKeyRoundTrip(f *testing.F) {
	f.Add("fig13", "PBBF-0.25", "delta", 0.5, 10.0, uint64(1), 30, "", 0.0, 0.0)
	f.Add("extchurn", "PSM", "churn", 0.25, 0.3, uint64(42), 10000, "sleepsched", 0.0, 0.0)
	f.Add("fig8", "NO PSM", "q", 1.0, 0.0, uint64(0), 1, "ola", 0.0, 0.0)
	f.Add("extlifetime", "PBBF-0.5", "energy_j", 1.0, 1.0, uint64(3), 30, "", 1.5, 0.005)
	f.Add("", "series with spaces|x=9", "", math.Copysign(0, -1), math.MaxFloat64, uint64(1)<<63, 0, "proto=|x", -1.0, 1e300)
	f.Fuzz(func(t *testing.T, id, series, pname string, x, pval float64, seed uint64, nodes int, proto string, energyJ, harvestW float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(pval) || math.IsInf(pval, 0) ||
			math.IsNaN(energyJ) || math.IsInf(energyJ, 0) || math.IsNaN(harvestW) || math.IsInf(harvestW, 0) {
			t.Skip("JSON cannot carry non-finite floats")
		}
		// JSON cannot carry invalid UTF-8 either: encoding/json replaces
		// such bytes with U+FFFD on marshal, which would silently rewrite
		// the identity. The wire contract is that scenario IDs, series, and
		// parameter names are UTF-8 — all registry values are Go source
		// literals, so this only excludes inputs no real spec can contain.
		if !utf8.ValidString(id) || !utf8.ValidString(series) || !utf8.ValidString(pname) || !utf8.ValidString(proto) {
			t.Skip("JSON cannot carry invalid UTF-8")
		}
		s := Quick()
		s.Seed = seed
		s.NetNodes = nodes
		s.Protocol = proto
		s.EnergyJ = energyJ
		s.HarvestW = harvestW
		s.DeltaSweep = append(s.DeltaSweep, x)
		pt := Point{Series: series, X: x, Params: map[string]float64{pname: pval}}
		key := PointKey(id, s, pt)
		if want := fmtPointKey(id, s, pt); key != want {
			t.Fatalf("key drifted from the fmt rendering:\ngot  %q\nwant %q", key, want)
		}
		if k := NewKeyer(s).Key(id, pt); k != key {
			t.Fatalf("Keyer and PointKey disagree:\nkeyer    %q\npointkey %q", k, key)
		}
		// SplitKey finds the scenario ID at the first '|', so it can only
		// recover IDs that are non-empty and contain none (registry IDs).
		if id != "" && !strings.Contains(id, "|") {
			sid, scaleKey, pointKey, err := SplitKey(key)
			if err != nil {
				t.Fatalf("SplitKey(%q): %v", key, err)
			}
			if sid != id || sid+"|"+scaleKey+"|"+pointKey != key {
				t.Fatalf("segments %q, %q, %q do not reassemble %q", sid, scaleKey, pointKey, key)
			}
		}
		spec := NewPointSpec(Scenario{ID: id}, s, pt)
		if err := spec.Verify(); err != nil {
			t.Fatalf("fresh spec failed verification: %v", err)
		}

		data, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var back PointSpec
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if back.Key != spec.Key {
			t.Fatalf("JSON round trip changed the key:\nbefore %q\nafter  %q", spec.Key, back.Key)
		}
		if err := back.Verify(); err != nil {
			t.Fatalf("round-tripped spec failed verification: %v", err)
		}
		if rederived := PointKey(back.ScenarioID, back.Scale, back.Point); rederived != spec.Key {
			t.Fatalf("re-derived key diverged:\nsent      %q\nrederived %q", spec.Key, rederived)
		}
		// A second marshal of the reconstructed spec must be byte-identical:
		// the wire form itself is canonical, not just the key.
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("marshal not canonical:\nfirst  %s\nsecond %s", data, again)
		}

		back.Key += "?"
		if back.Verify() == nil {
			t.Fatal("tampered key accepted")
		}
	})
}

// fmtPointKey is the fmt-based key rendering every stored checkpoint and
// disk record was minted with, kept as the reference the append-based
// serializer must match byte for byte.
func fmtPointKey(scenarioID string, s Scale, pt Point) string {
	var sb strings.Builder
	floats := func(vs []float64) {
		for i, v := range vs {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	ints := func(vs []int) {
		for i, v := range vs {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(v))
		}
	}
	sb.WriteString(scenarioID)
	fmt.Fprintf(&sb, "|grid=%dx%d|iu=%d|pt=%d|pg=", s.GridW, s.GridH, s.IdealUpdates, s.PercTrials)
	ints(s.PercGrids)
	fmt.Fprintf(&sb, "|nn=%d|nr=%d|nd=%d|q=", s.NetNodes, s.NetRuns, s.NetDuration.Nanoseconds())
	floats(s.QSweep)
	sb.WriteString("|pi=")
	floats(s.PSweepIdeal)
	sb.WriteString("|pn=")
	floats(s.PSweepNet)
	sb.WriteString("|ds=")
	floats(s.DeltaSweep)
	fmt.Fprintf(&sb, "|hop=%d,%d|nth=", s.HopNear, s.HopFar)
	ints(s.NetTrackHops)
	sb.WriteString("|duty=")
	floats(s.DutySweep)
	fmt.Fprintf(&sb, "|seed=%d", s.Seed)
	if s.Protocol != "" {
		fmt.Fprintf(&sb, "|proto=%s", s.Protocol)
	}
	if s.EnergyJ != 0 {
		fmt.Fprintf(&sb, "|energy=%s", strconv.FormatFloat(s.EnergyJ, 'g', -1, 64))
	}
	if s.HarvestW != 0 {
		fmt.Fprintf(&sb, "|harvest=%s", strconv.FormatFloat(s.HarvestW, 'g', -1, 64))
	}
	fmt.Fprintf(&sb, "|series=%s|x=%g", pt.Series, pt.X)
	names := make([]string, 0, len(pt.Params))
	for name := range pt.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&sb, "|%s=%g", name, pt.Params[name])
	}
	return sb.String()
}
