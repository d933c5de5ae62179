package scenario

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func samplePoint() Point {
	return Point{Series: "p=0.5", X: 0.3, Params: map[string]float64{"q": 0.3, "p": 0.5}}
}

func TestPointKeyDeterministic(t *testing.T) {
	s := Quick()
	a := PointKey("fig8", s, samplePoint())
	for i := 0; i < 10; i++ {
		if b := PointKey("fig8", s, samplePoint()); b != a {
			t.Fatalf("key not deterministic: %q vs %q", a, b)
		}
	}
}

func TestPointKeyDiscriminates(t *testing.T) {
	s := Quick()
	base := PointKey("fig8", s, samplePoint())

	other := samplePoint()
	other.Params["q"] = 0.4
	seeded := s
	seeded.Seed = 2
	scaled := s
	scaled.NetNodes++
	protocoled := s
	protocoled.Protocol = "ola"
	energized := s
	energized.EnergyJ = 2
	harvesting := energized
	harvesting.HarvestW = 0.005
	variants := map[string]string{
		"scenario ID": PointKey("fig9", s, samplePoint()),
		"param value": PointKey("fig8", s, other),
		"seed":        PointKey("fig8", seeded, samplePoint()),
		"scale field": PointKey("fig8", scaled, samplePoint()),
		"protocol":    PointKey("fig8", protocoled, samplePoint()),
		"energy":      PointKey("fig8", energized, samplePoint()),
		"harvest":     PointKey("fig8", harvesting, samplePoint()),
		"series": PointKey("fig8", s, Point{
			Series: "p=0.75", X: 0.3, Params: samplePoint().Params,
		}),
	}
	for what, key := range variants {
		if key == base {
			t.Fatalf("changing the %s did not change the key", what)
		}
	}
}

func TestPointKeySortsParams(t *testing.T) {
	s := Quick()
	key := PointKey("fig8", s, samplePoint())
	if !strings.Contains(key, "|p=0.5|q=0.3") {
		t.Fatalf("params not in sorted order: %q", key)
	}
}

// TestPointKeyProtocolBackCompat pins the backward-compatibility contract
// of the protocol dimension: a Scale with an empty Protocol (the PBBF
// default) must derive the exact key string it derived before the field
// existed, so every pre-protocol checkpoint, cache entry, and golden file
// still addresses the same computations. The full expected key is spelled
// out byte for byte — if this test fails, old checkpoints are orphaned.
func TestPointKeyProtocolBackCompat(t *testing.T) {
	s := Quick()
	got := PointKey("fig8", s, samplePoint())
	want := "fig8|grid=30x30|iu=4|pt=40|pg=10,20,30|nn=30|nr=3|nd=300000000000" +
		"|q=0,0.25,0.5,0.75,1|pi=0.05,0.25,0.5,0.75|pn=0.1,0.5|ds=8,12,16" +
		"|hop=10,20|nth=2,5|duty=0.1,0.2,0.5,1|seed=1" +
		"|series=p=0.5|x=0.3|p=0.5|q=0.3"
	if got != want {
		t.Fatalf("default-protocol key changed — old checkpoints orphaned:\ngot  %q\nwant %q", got, want)
	}
	if strings.Contains(got, "proto=") {
		t.Fatalf("empty protocol leaked into the key: %q", got)
	}
	s.Protocol = "sleepsched"
	keyed := PointKey("fig8", s, samplePoint())
	if !strings.Contains(keyed, "|seed=1|proto=sleepsched|series=") {
		t.Fatalf("non-default protocol missing from the key: %q", keyed)
	}
}

// TestPointKeyPinnedLiterals pins whole keys byte for byte at the bench
// and large presets and at one deliberately awkward point: an x that
// renders in exponent form, a 1/3-valued parameter, negative zero, a
// non-default protocol and both energy fields. Every float goes through
// the shortest 'g' rendering, so a serializer change that drifts from it
// (a fixed precision, a dropped exponent sign) orphans stored results and
// fails here first.
func TestPointKeyPinnedLiterals(t *testing.T) {
	awkward := Quick()
	awkward.Protocol = "sleepsched"
	awkward.EnergyJ = 1e-7
	awkward.HarvestW = 0.005
	awkward.DutySweep = []float64{0.1, 1.0 / 3, 1}
	cases := []struct {
		id   string
		s    Scale
		pt   Point
		want string
	}{
		{
			"fig13", Bench(),
			Point{Series: "PBBF-0.5", X: 12, Params: map[string]float64{"p": 0.5, "q": 0.25, "delta": 12}},
			"fig13|grid=40x40|iu=4|pt=60|pg=10,20,30|nn=100|nr=2|nd=1000000000000" +
				"|q=0,0.5,1|pi=0.05,0.5|pn=0.1,0.5|ds=8,12,16|hop=10,25|nth=2,5" +
				"|duty=0.1,0.5,1|seed=1|series=PBBF-0.5|x=12|delta=12|p=0.5|q=0.25",
		},
		{
			"extchurn", Large(),
			Point{Series: "PSM", X: 0.1, Params: map[string]float64{"churn": 0.1}},
			"extchurn|grid=100x100|iu=2|pt=40|pg=20,40|nn=10000|nr=1|nd=200000000000" +
				"|q=0,0.5,1|pi=0.5|pn=0.25|ds=10,12|hop=25,70|nth=2,5" +
				"|duty=0.1,0.5,1|seed=1|series=PSM|x=0.1|churn=0.1",
		},
		{
			"extlifetime", awkward,
			Point{Series: "PBBF-1/3", X: 1e21, Params: map[string]float64{
				"duty": 1.0 / 3, "tiny": 1e-7, "neg": math.Copysign(0, -1), "big": 123456789012,
			}},
			"extlifetime|grid=30x30|iu=4|pt=40|pg=10,20,30|nn=30|nr=3|nd=300000000000" +
				"|q=0,0.25,0.5,0.75,1|pi=0.05,0.25,0.5,0.75|pn=0.1,0.5|ds=8,12,16|hop=10,20|nth=2,5" +
				"|duty=0.1,0.3333333333333333,1|seed=1|proto=sleepsched|energy=1e-07|harvest=0.005" +
				"|series=PBBF-1/3|x=1e+21|big=1.23456789012e+11|duty=0.3333333333333333|neg=-0|tiny=1e-07",
		},
	}
	for _, c := range cases {
		if got := PointKey(c.id, c.s, c.pt); got != c.want {
			t.Errorf("%s key changed — stored results orphaned:\ngot  %q\nwant %q", c.id, got, c.want)
		}
	}
}

// TestPointKeyEnergyBackCompat pins the same contract for the finite-energy
// axis: the zero value (infinite batteries, the only workload that existed
// before the axis) must not appear in the key, and a finite budget must.
func TestPointKeyEnergyBackCompat(t *testing.T) {
	s := Quick()
	base := PointKey("fig8", s, samplePoint())
	if strings.Contains(base, "energy=") || strings.Contains(base, "harvest=") {
		t.Fatalf("zero energy axis leaked into the key: %q", base)
	}
	s.EnergyJ = 1.5
	energized := PointKey("fig8", s, samplePoint())
	if !strings.Contains(energized, "|seed=1|energy=1.5|series=") {
		t.Fatalf("finite energy missing from the key: %q", energized)
	}
	s.HarvestW = 0.005
	harvesting := PointKey("fig8", s, samplePoint())
	if !strings.Contains(harvesting, "|energy=1.5|harvest=0.005|series=") {
		t.Fatalf("harvest rate missing from the key: %q", harvesting)
	}
	// All three variants must parse back into the same three segments.
	for _, key := range []string{base, energized, harvesting} {
		id, scaleKey, pointKey, err := SplitKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if id+"|"+scaleKey+"|"+pointKey != key {
			t.Fatalf("segments do not reassemble %q", key)
		}
	}
}

// TestScaleKeyCoversEveryField pins the Scale field count: adding a
// dimension to Scale without extending appendScaleKey would silently alias
// distinct workloads to one cache/checkpoint key. When this fails, extend
// appendScaleKey and bump scaleKeyFields together.
func TestScaleKeyCoversEveryField(t *testing.T) {
	if n := reflect.TypeOf(Scale{}).NumField(); n != scaleKeyFields {
		t.Fatalf("Scale has %d fields but appendScaleKey serializes %d — extend the key serialization",
			n, scaleKeyFields)
	}
}

// TestSplitKey: SplitKey must invert PointKey's segment layout for default
// and non-default protocols, and reject strings that are not keys.
func TestSplitKey(t *testing.T) {
	s := Quick()
	pt := Point{Series: "p=0.05", X: 0.5, Params: map[string]float64{"p": 0.05, "q": 0.5}}
	for _, proto := range []string{"", "sleepsched"} {
		s.Protocol = proto
		key := PointKey("fig8", s, pt)
		id, scaleKey, pointKey, err := SplitKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if id != "fig8" {
			t.Fatalf("scenario %q", id)
		}
		if id+"|"+scaleKey+"|"+pointKey != key {
			t.Fatalf("segments do not reassemble the key:\n%s\n%s|%s|%s", key, id, scaleKey, pointKey)
		}
		if !strings.HasPrefix(pointKey, "series=p=0.05") {
			t.Fatalf("point segment %q", pointKey)
		}
		if proto != "" && !strings.Contains(scaleKey, "proto="+proto) {
			t.Fatalf("scale segment %q lost the protocol", scaleKey)
		}
	}
	for _, bad := range []string{"", "noscale", "fig8|", "fig8|series=a", "fig8|grid=1x1"} {
		if _, _, _, err := SplitKey(bad); err == nil {
			t.Fatalf("SplitKey(%q) accepted", bad)
		}
	}
}

var sinkKey string

// BenchmarkPointKey mints one point's key at the quick scale: through
// PointKey, which serializes the whole scale per call, and through a Keyer
// built once per run, the way the serving and sweep paths key every point.
func BenchmarkPointKey(b *testing.B) {
	s := Quick()
	pt := samplePoint()
	b.Run("PointKey", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			sinkKey = PointKey("fig8", s, pt)
		}
	})
	b.Run("Keyer", func(b *testing.B) {
		k := NewKeyer(s)
		b.ReportAllocs()
		for b.Loop() {
			sinkKey = k.Key("fig8", pt)
		}
	})
}
