package scenario

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.ckpt.json")
	cp := NewCheckpointFor(Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 7}})
	cp.Results["k1"] = Result{Y: 1.5, EnergyJ: 2, Delivery: 1}
	cp.Results["k2"] = Result{Skip: true}
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || !reflect.DeepEqual(cp, back) {
		t.Fatalf("round trip lost data:\n%+v\nvs\n%+v", cp, back)
	}
	// The atomic write must not leave temporaries behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files after atomic write: %v", entries)
	}
}

func TestCheckpointMissingFileIsFresh(t *testing.T) {
	cp, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || cp != nil {
		t.Fatalf("missing file: cp=%v err=%v, want nil/nil", cp, err)
	}
}

func TestCheckpointRejectsCorruptAndWrongVersion(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(corrupt); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}

	old := filepath.Join(dir, "old.json")
	cp := NewCheckpointFor(Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 1}})
	cp.Version = CheckpointVersion + 1
	if err := cp.WriteFile(old); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(old); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

func TestCheckpointWriterAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.ckpt")
	cp := NewCheckpointFor(Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 1}})
	w, err := cp.OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("k1", Result{Y: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("k2", Result{Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Results) != 2 || back.Results["k2"].Y != 2 {
		t.Fatalf("journal lost entries: %+v", back.Results)
	}

	// Reopening must append after the existing entries, not re-header.
	w, err = back.OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("k3", Result{Y: 3}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	back, err = LoadCheckpoint(path)
	if err != nil || len(back.Results) != 3 {
		t.Fatalf("resumed journal: %+v err=%v", back, err)
	}
}

// TestCheckpointToleratesTornFinalLine simulates a kill mid-append: the
// truncated trailing entry is skipped, everything before it survives.
func TestCheckpointToleratesTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	cp := NewCheckpointFor(Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 1}})
	w, err := cp.OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("k1", Result{Y: 1}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"k2","res`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("torn final line rejected: %v", err)
	}
	if len(back.Results) != 1 || back.Results["k1"].Y != 1 {
		t.Fatalf("intact entries lost: %+v", back.Results)
	}

	// Resuming after a torn line must drop it before appending: merging
	// new entries onto the torn remains would corrupt the journal for
	// every later load.
	w, err = back.OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append("k3", Result{Y: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append("k4", Result{Y: 4}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	back, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("journal corrupted by resume-after-torn: %v", err)
	}
	if len(back.Results) != 3 || back.Results["k3"].Y != 3 || back.Results["k4"].Y != 4 {
		t.Fatalf("resume-after-torn lost entries: %+v", back.Results)
	}

	// Corruption before the end is real corruption, not a torn write.
	mid := filepath.Join(t.TempDir(), "mid.ckpt")
	cp2 := NewCheckpointFor(Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 1}})
	if err := cp2.WriteFile(mid); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(mid)
	data = append(data, []byte("{garbage\n{\"key\":\"k9\",\"result\":{\"y\":9}}\n")...)
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(mid); err == nil {
		t.Fatal("mid-journal corruption accepted")
	}
}

// TestCheckpointCompaction: WriteFile is the compaction path — it must
// emit a canonical journal (header + sorted entries, same bytes for the
// same result set) and erase a torn tail left by a kill.
func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	cp := NewCheckpointFor(Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 1}})
	w, err := cp.OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	// Append in non-sorted order, as a parallel pool would.
	for _, k := range []string{"kz", "ka", "km"} {
		if err := w.Append(k, Result{Y: float64(len(k))}); err != nil {
			t.Fatal(err)
		}
		cp.Results[k] = Result{Y: float64(len(k))}
	}
	w.Close()
	// Simulate a kill mid-append: a torn tail the compaction must drop.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	grown, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	compact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(compact)) >= grown.Size() {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", grown.Size(), len(compact))
	}
	lines := strings.Split(strings.TrimRight(string(compact), "\n"), "\n")
	if len(lines) != 4 { // header + one line per unique key
		t.Fatalf("compacted journal has %d lines:\n%s", len(lines), compact)
	}
	// Entries must be in sorted-key order so identical result sets always
	// compact to identical bytes.
	for i, want := range []string{"ka", "km", "kz"} {
		if !strings.Contains(lines[i+1], `"key":"`+want+`"`) {
			t.Fatalf("line %d not %q:\n%s", i+1, want, compact)
		}
	}
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(compact) {
		t.Fatal("compaction output not deterministic")
	}
	back, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Results, cp.Results) {
		t.Fatalf("compaction lost results: %+v vs %+v", back.Results, cp.Results)
	}
}

func TestCheckpointMatches(t *testing.T) {
	cp := NewCheckpointFor(Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 1}})
	if err := cp.MatchesIdentity(Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 1}}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []Identity{
		{Experiment: "fig8", Knobs: Knobs{Scale: "quick", Seed: 1}},
		{Experiment: "all", Knobs: Knobs{Scale: "paper", Seed: 1}},
		{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 2}},
		{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 1, Protocol: "ola"}},
	} {
		if err := cp.MatchesIdentity(id); err == nil {
			t.Fatalf("mismatched identity %+v accepted", id)
		}
	}
}

// TestCheckpointIdentityEnergy: the energy axis is part of the run
// identity: a default-axis checkpoint must not resume a finite-energy
// sweep or vice versa.
func TestCheckpointIdentityEnergy(t *testing.T) {
	id := Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 1}}
	cp := NewCheckpointFor(id)
	if err := cp.MatchesIdentity(id); err != nil {
		t.Fatal(err)
	}
	energized := id
	energized.EnergyJ = 1.5
	if err := cp.MatchesIdentity(energized); err == nil {
		t.Fatal("default-axis checkpoint accepted a finite-energy workload")
	}
	harvest := energized
	harvest.HarvestW = 0.005
	ecp := NewCheckpointFor(energized)
	if err := ecp.MatchesIdentity(harvest); err == nil {
		t.Fatal("harvest-free checkpoint accepted a harvesting workload")
	}
	if err := ecp.MatchesIdentity(energized); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointHeaderBackCompat: a default-axis header written today must
// byte-match the pre-energy format (omitempty keeps old builds reading new
// defaults and vice versa), and a finite-energy header must round-trip.
func TestCheckpointHeaderBackCompat(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.ckpt")
	cp := NewCheckpointFor(Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 7}})
	if err := cp.WriteFile(plain); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	wantHeader := `{"version":1,"experiment":"all","scale":"quick","seed":7}` + "\n"
	if string(data) != wantHeader {
		t.Fatalf("default header changed — old journals orphaned:\ngot  %q\nwant %q", data, wantHeader)
	}

	keyed := filepath.Join(dir, "energy.ckpt")
	id := Identity{Experiment: "all", Knobs: Knobs{Scale: "quick", Seed: 7, EnergyJ: 1.5, HarvestW: 0.005}}
	ecp := NewCheckpointFor(id)
	ecp.Results["k"] = Result{Y: 2}
	if err := ecp.WriteFile(keyed); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCheckpoint(keyed)
	if err != nil {
		t.Fatal(err)
	}
	if back == nil || back.Identity != id {
		t.Fatalf("energy identity lost in round trip: %+v", back)
	}
}

// TestCheckpointHeaderPinned pins the journal header bytes for a
// non-default identity on both write paths (compaction and a fresh
// append journal). The identity is assigned field by field so the pin
// compiles against any layout of Identity.
func TestCheckpointHeaderPinned(t *testing.T) {
	var id Identity
	id.Experiment = "all"
	id.Scale = "quick"
	id.Seed = 7
	id.Protocol = "sleepsched"
	id.EnergyJ = 1.5
	id.HarvestW = 0.005
	const want = `{"version":1,"experiment":"all","scale":"quick","seed":7,"protocol":"sleepsched","energy_j":1.5,"harvest_w":0.005}` + "\n"

	dir := t.TempDir()
	compact := filepath.Join(dir, "compact.ckpt")
	if err := NewCheckpointFor(id).WriteFile(compact); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(dir, "journal.ckpt")
	w, err := NewCheckpointFor(id).OpenWriter(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{compact, journal} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != want {
			t.Fatalf("%s header changed:\ngot  %q\nwant %q", filepath.Base(path), data, want)
		}
		back, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if back == nil || back.Identity != id {
			t.Fatalf("%s: identity lost in round trip: %+v", filepath.Base(path), back)
		}
	}
}
