package protocol

import (
	"strings"
	"testing"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{"pbbf", ""},
		{" PBBF ", ""},
		{"sleepsched", "sleepsched"},
		{"SleepSched", "sleepsched"},
		{"ola", "ola"},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{},
		{Name: NamePBBF},
		{Name: NameSleepSched},
		{Name: NameSleepSched, WakePeriod: 8, Repeats: 2},
		{Name: NameOLA},
		{Name: NameOLA, DecodeThreshold: 2, RelayThreshold: 3},
	}
	for _, sp := range good {
		if err := sp.Validate(); err != nil {
			t.Errorf("valid spec %+v rejected: %v", sp, err)
		}
	}
	bad := []Spec{
		{Name: "flooding"},
		{Name: NameSleepSched, WakePeriod: -1},
		{Name: NameSleepSched, Repeats: -1},
		{Name: NameOLA, DecodeThreshold: -0.5},
		{Name: NameOLA, RelayThreshold: -1},
	}
	for _, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("invalid spec %+v accepted", sp)
		}
	}
}

func TestSpecForSuggestsOnTypo(t *testing.T) {
	if _, err := SpecFor("slepsched"); err == nil || !strings.Contains(err.Error(), "did you mean") ||
		!strings.Contains(err.Error(), NameSleepSched) {
		t.Fatalf("typo error should suggest sleepsched, got: %v", err)
	}
	if _, err := SpecFor("zzz"); err == nil || !strings.Contains(err.Error(), "known:") {
		t.Fatalf("hopeless typo should list known protocols, got: %v", err)
	}
	for _, name := range append(Names(), "", " PBBF ") {
		if _, err := SpecFor(name); err != nil {
			t.Errorf("SpecFor(%q): %v", name, err)
		}
	}
}

// TestNewSharesPBBFOnly: every node's Instances hands out the one shared
// stateless PBBF, but a stateful protocol instance of its own.
func TestNewSharesPBBFOnly(t *testing.T) {
	var n1, n2 Instances
	a, err := n1.Get(Spec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := n2.Get(Spec{Name: NamePBBF})
	if err != nil {
		t.Fatal(err)
	}
	if a != b || a != PBBF {
		t.Fatal("PBBF must be the shared stateless instance")
	}
	cfg := DefaultAdaptiveConfig()
	for _, sp := range []Spec{{Name: NameSleepSched}, {Name: NameOLA}, {Adaptive: &cfg}} {
		s1, err := n1.Get(sp)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := n2.Get(sp)
		if err != nil {
			t.Fatal(err)
		}
		if s1 == s2 || s1 == PBBF {
			t.Fatalf("%+v: stateful protocols must be one instance per node", sp)
		}
		if again, _ := n1.Get(sp); again != s1 {
			t.Fatalf("%+v: a node must reuse its instance across runs", sp)
		}
	}
	if _, err := n1.Get(Spec{Name: "bogus"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestInfosCoverEveryName(t *testing.T) {
	infos := Infos()
	if len(infos) != 3 {
		t.Fatalf("want 3 protocols, got %d", len(infos))
	}
	if infos[0].Name != NamePBBF {
		t.Fatalf("PBBF (the default) must list first, got %q", infos[0].Name)
	}
	for _, in := range infos {
		if in.Title == "" || in.Summary == "" || len(in.Knobs) == 0 {
			t.Errorf("protocol %q: incomplete metadata %+v", in.Name, in)
		}
		if sp, err := SpecFor(in.Name); err != nil || sp.Validate() != nil {
			t.Errorf("listed protocol %q does not resolve: %v", in.Name, err)
		}
		for _, k := range in.Knobs {
			if k.Name == "" || k.Desc == "" {
				t.Errorf("protocol %q: incomplete knob doc %+v", in.Name, k)
			}
		}
	}
}
