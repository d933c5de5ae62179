package core

import (
	"testing"
	"testing/quick"

	"pbbf/internal/raceflag"
)

// A node's duplicate filter is one SeqSet: a run has one broadcast origin,
// so first sight is a question about the sequence number alone.

func TestDuplicateFilterBasics(t *testing.T) {
	var s SeqSet
	if s.Has(7) {
		t.Fatal("empty set reported seen")
	}
	if !s.Add(7) {
		t.Fatal("first Add returned false")
	}
	if !s.Has(7) {
		t.Fatal("added seq not seen")
	}
	if s.Add(7) {
		t.Fatal("second Add returned true")
	}
	if s.Has(6) || s.Has(8) {
		t.Fatal("neighbouring seq reported seen")
	}
}

// TestSeqSetGrowsAcrossWords: seqs on both sides of each 64-bit word
// boundary land in their own bits, and a seq beyond the grown words reads
// as unseen.
func TestSeqSetGrowsAcrossWords(t *testing.T) {
	var s SeqSet
	seqs := []uint64{0, 63, 64, 127, 128, 200}
	for _, seq := range seqs {
		if !s.Add(seq) {
			t.Fatalf("first Add(%d) returned false", seq)
		}
	}
	for seq := uint64(0); seq < 300; seq++ {
		want := false
		for _, in := range seqs {
			want = want || in == seq
		}
		if s.Has(seq) != want {
			t.Fatalf("Has(%d) = %v, want %v", seq, !want, want)
		}
	}
	if len(s.words) != 4 {
		t.Fatalf("set holds %d words, want 4 for seq 200", len(s.words))
	}
}

// TestDuplicateFilterReset: Clear empties the set, and a cleared set
// re-marks a run's broadcasts without allocating.
func TestDuplicateFilterReset(t *testing.T) {
	var s SeqSet
	for seq := uint64(0); seq < 130; seq++ {
		s.Add(seq)
	}
	s.Clear()
	for seq := uint64(0); seq < 200; seq++ {
		if s.Has(seq) {
			t.Fatalf("seq %d survived Clear", seq)
		}
	}
	if !s.Add(129) || s.Add(129) {
		t.Fatal("first sight after Clear misreported")
	}
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Clear()
		for seq := uint64(0); seq < 130; seq++ {
			s.Add(seq)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm set allocates %.1f times per run", allocs)
	}
}

// Property: Add returns true exactly once per distinct seq, and Has agrees.
func TestPropertyMarkSeenOnce(t *testing.T) {
	check := func(seqs []uint16) bool {
		var s SeqSet
		firsts := map[uint64]int{}
		for _, raw := range seqs {
			seq := uint64(raw % 1024)
			if s.Add(seq) {
				firsts[seq]++
			}
		}
		for seq, n := range firsts {
			if n != 1 || !s.Has(seq) {
				return false
			}
		}
		for seq := uint64(0); seq < 1024; seq++ {
			if _, ok := firsts[seq]; ok != s.Has(seq) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateFilterRejectsSparseSeq pins the dense-seq invariant: a
// sequence number at or past 1<<26 must fail loudly instead of growing the
// bitset toward OOM. Has (read-only) stays safe.
func TestDuplicateFilterRejectsSparseSeq(t *testing.T) {
	var s SeqSet
	if !s.Add(maxSeq - 1) {
		t.Fatal("largest dense seq rejected")
	}
	for _, seq := range []uint64{maxSeq, 1 << 40} {
		if s.Has(seq) {
			t.Fatalf("unmarked seq %d reported seen", seq)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Add(%d) did not panic", seq)
				}
			}()
			s.Add(seq)
		}()
	}
}
