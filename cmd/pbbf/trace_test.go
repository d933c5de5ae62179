package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// traceLine is one parsed line of a trace NDJSON stream — the union of the
// header/event/node/result schemas, discriminated by Type.
type traceLine struct {
	Type   string  `json:"type"`
	Run    int     `json:"run"`
	TNS    int64   `json:"t_ns"`
	Kind   string  `json:"kind"`
	Node   int32   `json:"node"`
	Peer   *int32  `json:"peer"`
	Origin int32   `json:"origin"`
	Seq    uint32  `json:"seq"`
	Value  float64 `json:"value"`
	Cause  string  `json:"cause"`

	// result-line fields
	Delivery      float64 `json:"delivery"`
	EventsEmitted int     `json:"events_emitted"`
}

// TestTraceGoldens pins one traced extcompare point per broadcast protocol
// (PBBF, sleepsched, OLA), plus extadaptive's adaptive series at 30% loss,
// to its committed golden, byte for byte, and then
// model-checks the stream: every decoded reception must pair with a
// transmission by its peer that started strictly earlier and whose tx_end
// lands at exactly the reception's timestamp, while the receiver's radio
// is awake. A trace that diffs the golden means the simulation physics
// moved; a trace that fails the invariant means the recorder itself is
// lying about what the simulator did.
//
// Regenerate after an intentional physics change with:
//
//	go run ./cmd/pbbf trace -scenario extcompare -point <1|4|8> -runs 1 \
//	    -events packet,radio > cmd/pbbf/testdata/trace_extcompare_<proto>.ndjson
//	go run ./cmd/pbbf trace -scenario extadaptive -point 7 -runs 1 \
//	    -events packet,radio > cmd/pbbf/testdata/trace_extadaptive.ndjson
func TestTraceGoldens(t *testing.T) {
	cases := []struct {
		name     string
		scenario string
		point    string
		golden   string
	}{
		{"pbbf", "extcompare", "1", "testdata/trace_extcompare_pbbf.ndjson"},
		{"sleepsched", "extcompare", "4", "testdata/trace_extcompare_sleepsched.ndjson"},
		{"ola", "extcompare", "8", "testdata/trace_extcompare_ola.ndjson"},
		{"extadaptive", "extadaptive", "7", "testdata/trace_extadaptive.ndjson"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			args := []string{"trace", "-scenario", tc.scenario, "-point", tc.point,
				"-runs", "1", "-events", "packet,radio"}
			if err := run(args, &buf); err != nil {
				t.Fatal(err)
			}
			got := buf.Bytes()
			if !bytes.Equal(got, want) {
				t.Fatalf("trace stream diverged from %s: %s", tc.golden, firstDiff(got, want))
			}
			checkTraceInvariants(t, got)
		})
	}
}

// TestTraceWorkerIndependence proves the trace stream is byte-identical
// regardless of -workers: a single point always computes serially, so the
// flag cannot change scheduling, and the stream it emits is the same
// bytes either way.
func TestTraceWorkerIndependence(t *testing.T) {
	runTraceArgs := func(workers string) []byte {
		t.Helper()
		var buf bytes.Buffer
		args := []string{"trace", "-scenario", "extcompare", "-point", "1",
			"-runs", "1", "-events", "packet,radio", "-workers", workers}
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	one := runTraceArgs("1")
	eight := runTraceArgs("8")
	if !bytes.Equal(one, eight) {
		t.Fatalf("trace stream depends on -workers: %s", firstDiff(eight, one))
	}
}

// parseTrace splits a trace stream into typed lines.
func parseTrace(t *testing.T, stream []byte) []traceLine {
	t.Helper()
	var out []traceLine
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line traceLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		out = append(out, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkTraceInvariants model-checks one trace stream: structural framing
// (header first, result last, a non-empty event stream in between) and the
// reception-pairing physics described on TestTraceGoldens.
func checkTraceInvariants(t *testing.T, stream []byte) {
	t.Helper()
	lines := parseTrace(t, stream)
	if len(lines) < 3 {
		t.Fatalf("trace stream has only %d lines", len(lines))
	}
	if lines[0].Type != "header" {
		t.Fatalf("stream starts with %q, want header", lines[0].Type)
	}
	last := lines[len(lines)-1]
	if last.Type != "result" {
		t.Fatalf("stream ends with %q, want result", last.Type)
	}

	var events []traceLine
	for _, l := range lines {
		if l.Type == "event" {
			events = append(events, l)
		}
	}
	if len(events) == 0 {
		t.Fatal("trace stream carries no events")
	}
	if last.EventsEmitted != len(events) {
		t.Fatalf("result claims %d emitted events, stream has %d", last.EventsEmitted, len(events))
	}

	// Pass 1: index transmissions. txEnds holds (sender, t) of every frame
	// leaving the air; txStarts holds each sender's transmission start
	// times by kind.
	type at struct {
		node int32
		t    int64
	}
	txEnds := make(map[at]bool)
	txStarts := make(map[int32][]traceLine)
	for _, ev := range events {
		switch ev.Kind {
		case "tx_end":
			txEnds[at{ev.Node, ev.TNS}] = true
		case "tx_data", "tx_atim":
			txStarts[ev.Node] = append(txStarts[ev.Node], ev)
		}
	}

	// Pass 2: walk the stream in simulation order, tracking each radio's
	// awake state (every node starts awake) and deaths, and check each
	// decoded reception against its peer's transmissions. Death is fail-stop:
	// a dead node may finish one frame it had already committed to the air
	// (the trailing tx_end of a mid-transmission death) but must never start
	// a transmission, decode, deliver, or wake again.
	awake := make(map[int32]bool)
	isAwake := func(n int32) bool {
		a, seen := awake[n]
		return !seen || a
	}
	dead := make(map[int32]bool)
	committedTx := make(map[int32]bool) // dead with a frame still on the air
	rxChecked := 0
	for _, ev := range events {
		if dead[ev.Node] {
			switch ev.Kind {
			case "tx_end":
				if !committedTx[ev.Node] {
					t.Fatalf("dead node %d emits tx_end at t=%d with no committed frame", ev.Node, ev.TNS)
				}
				committedTx[ev.Node] = false
			case "tx_data", "tx_atim", "rx_data", "rx_atim", "duplicate", "deliver", "wake":
				t.Fatalf("dead node %d still active: %s at t=%d", ev.Node, ev.Kind, ev.TNS)
			}
		}
		switch ev.Kind {
		case "death":
			if dead[ev.Node] {
				t.Fatalf("node %d died twice (t=%d)", ev.Node, ev.TNS)
			}
			if ev.Cause != "" && ev.Cause != "depleted" {
				t.Fatalf("death of node %d carries unknown cause %q", ev.Node, ev.Cause)
			}
			dead[ev.Node] = true
			// A frame started but not yet ended at death time may complete.
			starts, ends := 0, 0
			for _, tx := range txStarts[ev.Node] {
				if tx.TNS <= ev.TNS {
					starts++
				}
			}
			for end := range txEnds {
				if end.node == ev.Node && end.t <= ev.TNS {
					ends++
				}
			}
			committedTx[ev.Node] = starts > ends
		case "wake":
			awake[ev.Node] = true
		case "sleep":
			awake[ev.Node] = false
		case "rx_data", "rx_atim", "duplicate":
			if ev.Peer == nil {
				t.Fatalf("reception without a peer: %+v", ev)
			}
			peer := *ev.Peer
			if !txEnds[at{peer, ev.TNS}] {
				t.Fatalf("%s at node %d t=%d: peer %d has no tx_end at that instant",
					ev.Kind, ev.Node, ev.TNS, peer)
			}
			wantKind := "tx_data"
			if ev.Kind == "rx_atim" {
				wantKind = "tx_atim"
			}
			started := false
			for _, tx := range txStarts[peer] {
				if tx.Kind == wantKind && tx.TNS < ev.TNS {
					started = true
					break
				}
			}
			if !started {
				t.Fatalf("%s at node %d t=%d: peer %d never started a %s before it",
					ev.Kind, ev.Node, ev.TNS, peer, wantKind)
			}
			if !isAwake(ev.Node) {
				t.Fatalf("%s at node %d t=%d: receiver's radio is asleep", ev.Kind, ev.Node, ev.TNS)
			}
			rxChecked++
		}
	}
	if rxChecked == 0 {
		t.Fatal("trace stream has no receptions to check")
	}
}

// TestTraceLifetimeDepletion traces one finite-battery extlifetime point
// end to end and proves the acceptance property in the stream itself:
// batteries run dry, every death carries the depleted cause, and — via
// checkTraceInvariants' death tracking — no depleted node transmits,
// decodes, delivers, or wakes afterwards.
func TestTraceLifetimeDepletion(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"trace", "-scenario", "extlifetime", "-point", "0",
		"-runs", "1", "-events", "packet,radio"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	checkTraceInvariants(t, stream)
	deaths := 0
	for _, l := range parseTrace(t, stream) {
		if l.Type != "event" || l.Kind != "death" {
			continue
		}
		if l.Cause != "depleted" {
			t.Fatalf("extlifetime death of node %d carries cause %q, want depleted", l.Node, l.Cause)
		}
		deaths++
	}
	if deaths == 0 {
		t.Fatal("no depletion deaths in a 0.5 J extlifetime trace")
	}
}

// TestTraceErrors covers the trace subcommand's validation surface.
func TestTraceErrors(t *testing.T) {
	cases := [][]string{
		{"trace"},                        // missing -scenario
		{"trace", "-scenario", "nope"},   // unknown scenario
		{"trace", "-scenario", "table1"}, // static table, nothing to trace
		{"trace", "-scenario", "extcompare", "-point", "99"},     // out of range
		{"trace", "-scenario", "extcompare", "-events", "bogus"}, // bad group
		{"trace", "-scenario", "fig4", "-point", "0"},            // ideal-sim scenario: no events
		{"trace", "-scenario", "extcompare", "-scale", "nope"},   // bad scale
		{"trace", "-scenario", "extcompare", "-workers", "0"},    // bad workers
		{"trace", "-scenario", "extcompare", "extra-arg"},        // positional junk
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestTraceListPoints spot-checks the -list-points enumeration against the
// extcompare layout (12 points: PBBF 0-3, sleepsched 4-7, OLA 8-11).
func TestTraceListPoints(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"trace", "-scenario", "extcompare", "-list-points"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 12 {
		t.Fatalf("extcompare lists %d points, want 12:\n%s", len(lines), buf.String())
	}
	if want := fmt.Sprintf("extcompare[%d]", 8); !bytes.Contains(lines[8], []byte(want)) {
		t.Fatalf("line 8 missing index tag %q: %s", want, lines[8])
	}
	if !bytes.Contains(lines[8], []byte("OLA")) {
		t.Fatalf("point 8 should open the OLA series: %s", lines[8])
	}
}
