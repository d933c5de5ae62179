package eventq

import (
	"sort"
	"testing"
	"testing/quick"
	"time"

	"pbbf/internal/rng"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue
	if q.Len() != 0 {
		t.Fatal("empty queue has nonzero length")
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue returned event")
	}
	if _, ok := q.PeekAt(); ok {
		t.Fatal("PeekAt on empty queue returned event")
	}
}

func TestOrderedPop(t *testing.T) {
	var q Queue
	times := []time.Duration{5, 1, 3, 2, 4}
	for _, d := range times {
		q.Push(d*time.Second, nil)
	}
	var got []time.Duration
	for q.Len() > 0 {
		at, _, ok := q.Pop()
		if !ok {
			t.Fatal("Pop failed with events pending")
		}
		got = append(got, at)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order: %v", got)
		}
	}
	if len(got) != len(times) {
		t.Fatalf("popped %d events, pushed %d", len(got), len(times))
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	var q Queue
	const n = 50
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		i := i
		q.Push(time.Second, func() { order = append(order, i) })
	}
	for q.Len() > 0 {
		_, fn, _ := q.Pop()
		fn()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of insertion order: %v", order)
		}
	}
}

// TestSteadyStateAllocFree verifies the headline property: once the heap
// array has grown to the working set, a fire/schedule steady state does
// not allocate.
func TestSteadyStateAllocFree(t *testing.T) {
	var q Queue
	fn := func() {}
	for i := 0; i < 64; i++ {
		q.Push(time.Duration(i)*time.Millisecond, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		at, _, _ := q.Pop()
		q.Push(at+64*time.Millisecond, fn)
	})
	if allocs != 0 {
		t.Fatalf("steady-state pop/push allocates %.1f times per cycle", allocs)
	}
}

// TestSlotReuseAfterPop checks that a popped event's heap slot is reused by
// the next push, so steady-state churn never grows the heap array.
func TestSlotReuseAfterPop(t *testing.T) {
	var q Queue
	for i := 0; i < 8; i++ {
		q.Push(time.Duration(i)*time.Second, nil)
	}
	grown := cap(q.heap)
	for cycle := 0; cycle < 1000; cycle++ {
		at, _, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained unexpectedly")
		}
		q.Push(at+8*time.Second, nil)
	}
	if cap(q.heap) != grown {
		t.Fatalf("heap array grew from %d to %d entries during steady-state churn", grown, cap(q.heap))
	}
	if q.Len() != 8 {
		t.Fatalf("Len after churn = %d, want 8", q.Len())
	}
}

// TestResetRestartsSequence checks that a reused queue orders
// equal-timestamp events exactly like a fresh one and drops the callbacks
// it discarded.
func TestResetRestartsSequence(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(time.Duration(i%3), func() {})
	}
	q.Pop()
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	for i, e := range q.heap[:cap(q.heap)] {
		if e.fn != nil {
			t.Fatalf("entry %d keeps a callback after Reset", i)
		}
	}
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		q.Push(time.Second, func() { order = append(order, i) })
	}
	for q.Len() > 0 {
		_, fn, _ := q.Pop()
		fn()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events after Reset fired out of insertion order: %v", order)
		}
	}
}

// refEvent is one event of the reference model: its key and push index.
type refEvent struct {
	at  time.Duration
	seq int
}

// Property: random interleavings of Push and Pop, with many equal
// timestamps, pop events in exactly the order a stable sort of the pending
// set by (time, push order) gives.
func TestPropertyHeapOrder(t *testing.T) {
	check := func(seed uint64, rawN uint16) bool {
		r := rng.New(seed)
		n := int(rawN)%2000 + 1
		var q Queue
		var pending []refEvent
		popped := -1
		now := time.Duration(0)
		for seq := 0; seq < n || q.Len() > 0; {
			if seq < n && (q.Len() == 0 || r.Bool(0.6)) {
				// Few distinct times relative to the queue size, so most
				// comparisons are decided by the sequence tie-break.
				at := now + time.Duration(r.Intn(8))
				s := seq
				q.Push(at, func() { popped = s })
				pending = append(pending, refEvent{at: at, seq: seq})
				seq++
				continue
			}
			sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
			want := pending[0]
			pending = pending[1:]
			at, fn, ok := q.Pop()
			if !ok {
				return false
			}
			fn()
			if at != want.at || popped != want.seq {
				return false
			}
			now = at
		}
		return len(pending) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sequence numbers preserve FIFO among equal timestamps even
// when the pushes land in heap storage recycled by earlier pops.
func TestPropertyStableOrder(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		var q Queue
		// Churn the heap first so pushes land in recycled storage.
		for i := 0; i < 20; i++ {
			q.Push(time.Second, nil)
			q.Pop()
		}
		tags := make([]int, 0, 100)
		for i := 0; i < 100; i++ {
			i := i
			at := time.Duration(r.Intn(5)) * time.Second
			q.Push(at, func() { tags = append(tags, i) })
		}
		lastTagAtTime := map[time.Duration]int{}
		for q.Len() > 0 {
			at, fn, _ := q.Pop()
			fn()
			tag := tags[len(tags)-1]
			if prev, ok := lastTagAtTime[at]; ok && tag < prev {
				return false
			}
			lastTagAtTime[at] = tag
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPushPop(b *testing.B) {
	r := rng.New(1)
	var q Queue
	for i := 0; i < b.N; i++ {
		q.Push(time.Duration(r.Intn(1000))*time.Millisecond, nil)
		if q.Len() > 1024 {
			q.Pop()
		}
	}
}
