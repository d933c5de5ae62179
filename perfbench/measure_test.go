package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}, {99.9, 100},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	// Nearest rank never interpolates: with 4 samples p50 is the 2nd.
	if got := percentile([]float64{10, 20, 30, 40}, 50); got != 20 {
		t.Errorf("p50 of 4 samples = %v, want 20", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 99, 10}, {999, 99, 9}, {1100, 99, 11}, {10000, 99.9, 10}, {100, 90, 10}, {100, 99, 1}, {0, 99, 0},
	} {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {19, 0},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestParseProcStat(t *testing.T) {
	const stat = `cpu  100 5 50 800 10 1 2 30 7 0
cpu0 50 2 25 400 5 0 1 15 3 0
cpu1 50 3 25 400 5 1 1 15 4 0
intr 12345
`
	st, err := parseProcStat(strings.NewReader(stat))
	if err != nil {
		t.Fatal(err)
	}
	// user..steal: guest and guest_nice are already inside user/nice.
	if st.total != 100+5+50+800+10+1+2+30 || st.steal != 30 {
		t.Errorf("parsed %+v, want total 998 steal 30", st)
	}
	later := cpuStat{total: st.total + 200, steal: st.steal + 20}
	if got := stealShare(st, later); got != 0.1 {
		t.Errorf("steal share = %v, want 0.1", got)
	}
	if got := stealShare(later, st); got != 0 {
		t.Errorf("backwards steal share = %v, want 0", got)
	}

	// Kernels before 2.6.11 have no steal column.
	old, err := parseProcStat(strings.NewReader("cpu 1 2 3 4\n"))
	if err != nil || old.total != 10 || old.steal != 0 {
		t.Errorf("four-field line: %+v, %v", old, err)
	}
	for _, bad := range []string{"cpu0 1 2 3 4 5\n", "cpu 1 2\n", "cpu 1 x 3 4 5\n", ""} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProcStat(%q) succeeded", bad)
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: ms(0), End: ms(100)},
		// Two overlapping children cover 10..40 once, not 50 ms.
		{ID: 2, Parent: 1, Name: "store.get", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "store.get", Start: ms(20), End: ms(40)},
		// A disjoint child.
		{ID: 4, Parent: 1, Name: "store.put", Start: ms(60), End: ms(70)},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "store.put", Start: ms(95), End: ms(120)},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 6, Parent: 4, Name: "disk", Start: ms(62), End: ms(66)},
		{ID: 7, Name: "idle", Start: ms(0), End: ms(5)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(100 - 30 - 10 - 5), 2: ms(20), 3: ms(20), 4: ms(6), 5: ms(25), 6: ms(4), 7: ms(5)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
}

func TestSpanRecorderInheritsRequest(t *testing.T) {
	rec := newSpanRecorder()
	now := time.Now()
	a := rec.begin()
	b := rec.begin()
	child := rec.add("store.mem.get", b, now, now.Add(time.Millisecond))
	rec.finish(a, "request.mem", now, now.Add(2*time.Millisecond))
	rec.finish(b, "request.disk", now, now.Add(3*time.Millisecond))
	spans := rec.all()
	if got := spans[child-1]; got.Req != b || got.Parent != b {
		t.Errorf("child span %+v, want parent and request %d", got, b)
	}
	if spans[a-1].Req != a || spans[a-1].Name != "request.mem" {
		t.Errorf("root span %+v", spans[a-1])
	}
}
