package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pbbf/internal/experiments"
	"pbbf/internal/scenario"
)

func TestTierScheduleIsSeeded(t *testing.T) {
	cfg := config{seed: 42}
	a := tierSchedule(cfg.rng(300), tracedMix, 500)
	b := tierSchedule(cfg.rng(300), tracedMix, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different tier schedules")
	}
	c := tierSchedule(config{seed: 43}.rng(300), tracedMix, 500)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same tier schedule")
	}
	var n [3]int
	for _, x := range a {
		n[x]++
	}
	// 60/20/20 within a generous margin over 500 draws.
	if n[tierMem] < 250 || n[tierDisk] < 60 || n[tierCompute] < 60 {
		t.Errorf("tier counts %v far from the 60/20/20 mix", n)
	}
	only := tierSchedule(rand.New(rand.NewPCG(1, 1)), [3]float64{0, 1, 0}, 50)
	for _, x := range only {
		if x != tierDisk {
			t.Fatalf("disk-only mix drew %v", x)
		}
	}
}

func TestRequestPlanIsSeeded(t *testing.T) {
	written := []uint64{11, 22, 33, 44, 55}
	for _, focus := range []tier{tierMem, tierDisk} {
		draw := func(seed uint64) []uint64 {
			next := requestPlan(config{seed: seed}, 0, focus, written)
			var out []uint64
			for i := 0; i < 12; i++ {
				want, s := next()
				if want != focus {
					t.Fatalf("%v plan scheduled %v", focus, want)
				}
				out = append(out, s)
			}
			return out
		}
		if !reflect.DeepEqual(draw(7), draw(7)) {
			t.Errorf("%v plan differs for the same seed", focus)
		}
	}
	// A disk round visits every working-set seed once before repeating.
	next := requestPlan(config{seed: 7}, 1, tierDisk, written)
	seen := map[uint64]bool{}
	for i := range written {
		_, s := next()
		if seen[s] {
			t.Fatalf("disk round repeated seed %d after %d requests", s, i)
		}
		seen[s] = true
	}
}

func TestSeedPlanCoversPool(t *testing.T) {
	p := newSeedPlan(config{seed: 5})
	seen := map[uint64]bool{}
	for i := 0; i < seedPool; i++ {
		s := p.take()
		if s < 1 || s > seedPool || seen[s] {
			t.Fatalf("seed %d out of pool or repeated", s)
		}
		seen[s] = true
	}
	if q := newSeedPlan(config{seed: 5}); q.take() != p.order[0] {
		t.Error("seed plan not reproducible")
	}
}

func TestTierMismatch(t *testing.T) {
	for _, c := range []struct {
		want     tier
		cached   []bool
		diskHits []int
		ok       bool
	}{
		{tierMem, []bool{true, true}, []int{0, 0}, true},
		{tierMem, []bool{true, true}, []int{0, 1}, false},  // read from disk
		{tierMem, []bool{true, false}, []int{0, 0}, false}, // computed
		{tierDisk, []bool{true, true}, []int{1, 1}, true},  // each point read from disk
		{tierDisk, []bool{true, true}, []int{1, 0}, false}, // one point was a memory hit
		{tierCompute, []bool{false}, []int{0}, true},       // computed
		{tierCompute, []bool{true, false}, []int{1, 0}, false},
		{tierMem, nil, nil, false},
	} {
		msg := tierMismatch(c.want, c.cached, c.diskHits)
		if (msg == "") != c.ok {
			t.Errorf("tierMismatch(%v, %v, %v) = %q, want ok=%v", c.want, c.cached, c.diskHits, msg, c.ok)
		}
	}
}

// servedFor builds the response a correct server gives for a hit on seed.
func servedFor(t *testing.T, seed uint64) *response {
	t.Helper()
	sc, err := experiments.Registry().ByID(serveScenario)
	if err != nil {
		t.Fatal(err)
	}
	data, err := directCompute(context.Background(), sc, seed)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := pointKeys(seed)
	if err != nil {
		t.Fatal(err)
	}
	r := &response{keys: keys, results: bytes.Split(data, []byte{'\n'})}
	for range keys {
		r.cached = append(r.cached, true)
	}
	return r
}

func TestCheckServedCountsWrongTierAndResult(t *testing.T) {
	const seed = 77
	good := servedFor(t, seed)
	noDisk := make([]int, len(good.keys))
	diskHits := make([]int, len(good.keys))
	for i := range diskHits {
		diskHits[i] = 1
	}
	wrongResult := *good
	wrongResult.results = append([][]byte{[]byte(`{"y":1}`)}, good.results[1:]...)
	reqs := []servedRequest{
		{want: tierMem, seed: seed, resp: good, diskHits: noDisk},         // right
		{want: tierDisk, seed: seed, resp: good, diskHits: diskHits},      // right
		{want: tierCompute, seed: seed, resp: good, diskHits: noDisk},     // wrong tier: cached
		{want: tierMem, seed: seed, resp: good, diskHits: diskHits},       // wrong tier: disk
		{want: tierMem, seed: seed, resp: &wrongResult, diskHits: noDisk}, // wrong result
		{want: tierMem, seed: seed, err: errors.New("status 429: shed")},  // refused
	}
	var tl tally
	if err := checkServed(context.Background(), &tl, reqs); err != nil {
		t.Fatal(err)
	}
	if tl.attempted != len(reqs) || tl.failed != 4 {
		t.Fatalf("attempted %d failed %d, want %d and 4 (reasons %q)", tl.attempted, tl.failed, len(reqs), tl.reasons)
	}
	for _, want := range []string{"tier mismatch", "differ from a direct compute", "429"} {
		if !strings.Contains(strings.Join(tl.reasons, "\n"), want) {
			t.Errorf("reasons %q lack %q", tl.reasons, want)
		}
	}
}

// TestLiveTierChecks runs requests against a real node: the first request
// for a seed computes, the second is a memory hit, and each is judged
// against the tier it was scheduled for.
func TestLiveTierChecks(t *testing.T) {
	ctx := context.Background()
	n, err := startNode(t.TempDir(), memShards, memEntries, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.stop()
	const seed = 5
	keys, err := pointKeys(seed)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64][]byte{seed: nil}
	if err := referenceResults(ctx, want); err != nil {
		t.Fatal(err)
	}
	for i, c := range []struct {
		scheduled tier
		failed    int
	}{
		{tierMem, 1},     // computed, not a memory hit
		{tierMem, 0},     // now a memory hit
		{tierDisk, 1},    // a memory hit, not read from disk
		{tierCompute, 1}, // cached, not computed
	} {
		var tl tally
		verifyServed(&tl, issue(ctx, n, c.scheduled, seed, keys, nil), want[seed])
		if tl.attempted != 1 || tl.failed != c.failed {
			t.Errorf("request %d scheduled %v: failed %d, want %d (%q)", i, c.scheduled, tl.failed, c.failed, tl.reasons)
		}
	}
}

func TestCheckDigestsCountsMismatches(t *testing.T) {
	recorded, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if len(recorded.Digests) != seedPool {
		t.Fatalf("digests_bench.json holds %d seeds, want %d", len(recorded.Digests), seedPool)
	}
	sc, err := experiments.Registry().ByID("fig17")
	if err != nil {
		t.Fatal(err)
	}
	s := scenario.Bench()
	s.Seed = 3
	outs, err := scenario.RunAll([]scenario.Scenario{sc}, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := recorded.Digests[strconv.Itoa(3)]
	var ok tally
	checkDigests(&ok, want, 3, outs)
	if ok.failed != 0 {
		t.Fatalf("recorded digest rejected a correct sweep: %q", ok.reasons)
	}

	// One changed result fails every point of its scenario.
	outs[0].Points[2].Result.Y += 1e-12
	var bad tally
	checkDigests(&bad, want, 3, outs)
	if bad.failed != len(outs[0].Points) {
		t.Fatalf("failed %d, want all %d points of the scenario", bad.failed, len(outs[0].Points))
	}
	// A seed without a record fails too.
	var none tally
	checkDigests(&none, nil, 3, outs)
	if none.failed != len(outs[0].Points) {
		t.Fatalf("unrecorded seed: failed %d", none.failed)
	}
}

func TestParseStream(t *testing.T) {
	const header = `{"type":"run","experiment":"fig17","scale":"quick","seed":9,"workers":1,"scenarios":1,"jobs":1}` + "\n"
	const point = `{"type":"point","scenario":"fig17","series":"s","x":8,"params":{"delta":8,"p":0.5,"q":0.25},"result":{"y":1.5},"cached":true}` + "\n"
	r, err := parseStream([]byte(header+point+`{"type":"done","jobs":1}`+"\n"), 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.keys) != 1 || !r.cached[0] || string(r.results[0]) != `{"y":1.5}` {
		t.Errorf("parsed %+v", r)
	}
	for name, body := range map[string]string{
		"error line": header + `{"type":"error","error":"boom"}` + "\n",
		"truncated":  header,
		"short":      header + `{"type":"done","jobs":1}` + "\n",
		"garbage":    "not json\n",
	} {
		if _, err := parseStream([]byte(body), 9); err == nil {
			t.Errorf("%s: parseStream succeeded", name)
		}
	}
}

func TestOutputsDiffer(t *testing.T) {
	a := []scenario.Output{{Points: []scenario.PointOutput{{Result: scenario.Result{Y: 1}}}}}
	b := []scenario.Output{{Points: []scenario.PointOutput{{Result: scenario.Result{Y: 1}}}}}
	if msg := outputsDiffer(a, b); msg != "" {
		t.Errorf("equal outputs differ: %s", msg)
	}
	b[0].Points[0].Result.Y = 2
	if outputsDiffer(a, b) == "" {
		t.Error("different outputs compared equal")
	}
}

func TestFamily(t *testing.T) {
	for _, c := range []struct {
		id     string
		traced bool
		events uint64
		want   string
	}{
		{"fig13", true, 100, "netsim"},
		{"fig4", false, 100, "idealsim"},
		{"fig6", false, 0, "percolation"},
		{"extgossip", false, 0, "gossip"},
		{"table1", false, 0, "other"},
	} {
		if got := family(c.id, c.traced, c.events); got != c.want {
			t.Errorf("family(%s) = %s, want %s", c.id, got, c.want)
		}
	}
}
