package core

import (
	"testing"
	"testing/quick"
)

func TestDuplicateFilterBasics(t *testing.T) {
	f := NewDuplicateFilter()
	key := PacketKey{Origin: 3, Seq: 7}
	if f.Seen(key) {
		t.Fatal("fresh filter reported seen")
	}
	if !f.MarkSeen(key) {
		t.Fatal("first MarkSeen returned false")
	}
	if !f.Seen(key) {
		t.Fatal("marked key not seen")
	}
	if f.MarkSeen(key) {
		t.Fatal("second MarkSeen returned true")
	}
	if f.Len() != 1 {
		t.Fatalf("len = %d", f.Len())
	}
}

func TestDuplicateFilterDistinguishesKeys(t *testing.T) {
	f := NewDuplicateFilter()
	f.MarkSeen(PacketKey{Origin: 1, Seq: 1})
	if f.Seen(PacketKey{Origin: 1, Seq: 2}) {
		t.Fatal("different seq reported seen")
	}
	if f.Seen(PacketKey{Origin: 2, Seq: 1}) {
		t.Fatal("different origin reported seen")
	}
}

func TestDuplicateFilterReset(t *testing.T) {
	f := NewDuplicateFilter()
	f.MarkSeen(PacketKey{Origin: 1, Seq: 1})
	f.Reset()
	if f.Len() != 0 {
		t.Fatalf("len after reset = %d", f.Len())
	}
	if f.Seen(PacketKey{Origin: 1, Seq: 1}) {
		t.Fatal("key survived reset")
	}
}

// TestDuplicateFilterResetKeepsOneRun models a pooled filter across runs
// that each pick a new broadcast source: after Reset it holds only the
// bitsets of the last run, reuses them for the next run's origins without
// allocating, and answers Seen/MarkSeen/Len exactly like a fresh filter.
func TestDuplicateFilterResetKeepsOneRun(t *testing.T) {
	f := NewDuplicateFilter()
	const runs, perRun = 200, 3
	for run := 0; run < runs; run++ {
		f.Reset()
		if f.Len() != 0 {
			t.Fatalf("run %d: len after reset = %d", run, f.Len())
		}
		if run > 0 {
			if got := len(f.byOrigin) + len(f.spare); got != perRun {
				t.Fatalf("run %d: filter holds %d bitsets, want one run's %d", run, got, perRun)
			}
			prev := PacketKey{Origin: (run - 1) * perRun, Seq: 0}
			if f.Seen(prev) {
				t.Fatalf("run %d: key %v of the previous run survived reset", run, prev)
			}
		}
		for o := 0; o < perRun; o++ {
			for seq := uint64(0); seq < 100; seq += 7 {
				key := PacketKey{Origin: run*perRun + o, Seq: seq}
				if f.Seen(key) || !f.MarkSeen(key) || f.MarkSeen(key) || !f.Seen(key) {
					t.Fatalf("run %d: first sight of %v misreported", run, key)
				}
			}
		}
		if want := perRun * 15; f.Len() != want {
			t.Fatalf("run %d: len = %d, want %d", run, f.Len(), want)
		}
		if f.Seen(PacketKey{Origin: run*perRun + 1, Seq: 1}) {
			t.Fatalf("run %d: unmarked seq reported seen", run)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		f.Reset()
		for o := 0; o < perRun; o++ {
			f.MarkSeen(PacketKey{Origin: 1000 + o, Seq: 5})
		}
	})
	if allocs != 0 {
		t.Fatalf("warm filter allocates %.1f times per run", allocs)
	}
}

// Property: MarkSeen returns true exactly once per distinct key.
func TestPropertyMarkSeenOnce(t *testing.T) {
	check := func(keys []uint16) bool {
		f := NewDuplicateFilter()
		firsts := map[PacketKey]int{}
		for _, k := range keys {
			key := PacketKey{Origin: int(k % 16), Seq: uint64(k / 16)}
			if f.MarkSeen(key) {
				firsts[key]++
			}
		}
		for _, n := range firsts {
			if n != 1 {
				return false
			}
		}
		return f.Len() == len(firsts)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateFilterRejectsSparseSeq pins the dense-seq invariant: a
// sequence number far outside the dense range must fail loudly instead of
// growing the bitset toward OOM. Seen (read-only) stays safe.
func TestDuplicateFilterRejectsSparseSeq(t *testing.T) {
	f := NewDuplicateFilter()
	huge := PacketKey{Origin: 1, Seq: 1 << 40}
	if f.Seen(huge) {
		t.Fatal("unmarked huge seq reported seen")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MarkSeen with a sparse sequence number did not panic")
		}
	}()
	f.MarkSeen(huge)
}
