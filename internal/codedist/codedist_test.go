package codedist

import (
	"testing"
	"testing/quick"
	"time"
)

// newSource returns a source Reset to batch size k.
func newSource(t *testing.T, k int) *Source {
	t.Helper()
	var s Source
	if err := s.Reset(k); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestSourceResetValidation(t *testing.T) {
	var s Source
	if err := s.Reset(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := s.Reset(-1); err == nil {
		t.Fatal("k=-1 accepted")
	}
}

func TestGenerateSequences(t *testing.T) {
	s := newSource(t, 1)
	for i := 0; i < 5; i++ {
		p := s.Generate(time.Duration(i) * time.Second)
		if len(p.Updates) != 1 {
			t.Fatalf("k=1 payload has %d updates", len(p.Updates))
		}
		if p.Updates[0].Seq != i {
			t.Fatalf("seq = %d, want %d", p.Updates[0].Seq, i)
		}
		if p.Updates[0].GeneratedAt != time.Duration(i)*time.Second {
			t.Fatalf("GeneratedAt = %v", p.Updates[0].GeneratedAt)
		}
	}
	if s.Generated() != 5 {
		t.Fatalf("Generated = %d", s.Generated())
	}
}

func TestKBatching(t *testing.T) {
	s := newSource(t, 3)
	var last Payload
	for i := 0; i < 5; i++ {
		last = s.Generate(time.Duration(i) * time.Second)
	}
	if len(last.Updates) != 3 {
		t.Fatalf("payload carries %d updates, want 3", len(last.Updates))
	}
	// Must be the 3 most recent: 2, 3, 4.
	for i, want := range []int{2, 3, 4} {
		if last.Updates[i].Seq != want {
			t.Fatalf("updates = %v", last.Updates)
		}
	}
}

func TestPayloadIsACopy(t *testing.T) {
	s := newSource(t, 2)
	p1 := s.Generate(0)
	p1.Updates[0].Seq = 999
	p2 := s.Generate(time.Second)
	if p2.Updates[0].Seq == 999 {
		t.Fatal("payload aliases source state")
	}
}

func TestTrackerFirstSightLatency(t *testing.T) {
	var tr Tracker
	p := Payload{Updates: []Update{{Seq: 0, GeneratedAt: 10 * time.Second}}}
	tr.Observe(p, 14*time.Second)
	// Re-observing later must not overwrite the first-sight latency.
	tr.Observe(p, 30*time.Second)
	lat, ok := tr.Latency(0)
	if !ok || lat != 4*time.Second {
		t.Fatalf("latency = %v, %v", lat, ok)
	}
	if tr.Received() != 1 {
		t.Fatalf("received = %d", tr.Received())
	}
}

func TestTrackerBatchedCatchUp(t *testing.T) {
	// A node that misses packet 0 learns update 0 from packet 1 (k=2).
	var tr Tracker
	p := Payload{Updates: []Update{
		{Seq: 0, GeneratedAt: 0},
		{Seq: 1, GeneratedAt: 100 * time.Second},
	}}
	tr.Observe(p, 105*time.Second)
	if tr.Received() != 2 {
		t.Fatalf("received = %d, want 2", tr.Received())
	}
	lat0, _ := tr.Latency(0)
	if lat0 != 105*time.Second {
		t.Fatalf("catch-up latency = %v", lat0)
	}
}

func TestTrackerMissingUpdate(t *testing.T) {
	var tr Tracker
	if _, ok := tr.Latency(7); ok {
		t.Fatal("missing update reported present")
	}
}

// Property: after n generations with batch size k, the payload always
// carries min(n, k) updates with contiguous trailing sequence numbers.
func TestPropertyBatchContents(t *testing.T) {
	check := func(rawK, rawN uint8) bool {
		k := int(rawK)%5 + 1
		n := int(rawN)%20 + 1
		var s Source
		if err := s.Reset(k); err != nil {
			return false
		}
		var p Payload
		for i := 0; i < n; i++ {
			p = s.Generate(time.Duration(i) * time.Second)
		}
		want := k
		if n < k {
			want = n
		}
		if len(p.Updates) != want {
			return false
		}
		for i, u := range p.Updates {
			if u.Seq != n-want+i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTrackerRejectsSparseSeq pins the dense-seq invariant: sequence
// numbers outside [0, 1<<26) must fail loudly instead of growing the flat
// first-sight state toward OOM.
func TestTrackerRejectsSparseSeq(t *testing.T) {
	for _, seq := range []int{-1, 1 << 26} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Observe with seq %d did not panic", seq)
				}
			}()
			var tr Tracker
			tr.Observe(Payload{Updates: []Update{{Seq: seq}}}, time.Second)
		}()
	}
}
