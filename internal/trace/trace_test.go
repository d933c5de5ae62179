package trace

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestKindStrings(t *testing.T) {
	seen := map[string]Kind{}
	for k := Kind(1); k < kindCount; k++ {
		name := k.String()
		if name == "" || name == "invalid" {
			t.Fatalf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
	if got := Kind(0).String(); got != "invalid" {
		t.Fatalf("zero kind name = %q, want invalid", got)
	}
	if got := kindCount.String(); got != "invalid" {
		t.Fatalf("out-of-range kind name = %q, want invalid", got)
	}
}

func TestKindGroups(t *testing.T) {
	cases := map[Kind]Group{
		KindTxData:        GroupPacket,
		KindRxATIM:        GroupPacket,
		KindDropCollision: GroupPacket,
		KindDeliver:       GroupPacket,
		KindWake:          GroupRadio,
		KindSleep:         GroupRadio,
		KindDeath:         GroupRadio,
		KindEnergy:        GroupEnergy,
	}
	for k, want := range cases {
		if got := k.Group(); got != want {
			t.Errorf("%s group = %d, want %d", k, got, want)
		}
	}
}

func TestSlabAndDiscard(t *testing.T) {
	var s Slab
	for i := 0; i < 10; i++ {
		s.Record(Event{T: time.Duration(i), Kind: KindWake, Node: int32(i)})
	}
	if len(s.Events) != 10 {
		t.Fatalf("slab holds %d events, want 10", len(s.Events))
	}
	if s.Events[7].Node != 7 {
		t.Fatalf("slab order broken: %+v", s.Events[7])
	}
	Discard.Record(Event{Kind: KindSleep}) // must not panic or retain
}

func TestAppendNDJSON(t *testing.T) {
	line := string(AppendNDJSON(nil, 2, Event{
		T: 1500000000, Kind: KindRxData, Node: 3, Peer: 7, Origin: 0, Seq: 0,
	}))
	want := `{"type":"event","run":2,"t_ns":1500000000,"kind":"rx_data","node":3,"peer":7,"origin":0,"seq":0}` + "\n"
	if line != want {
		t.Fatalf("rx line:\n got %q\nwant %q", line, want)
	}
	// Peer -1 and zero value are omitted; packet kinds keep origin/seq.
	line = string(AppendNDJSON(nil, 0, Event{
		T: 42, Kind: KindTxATIM, Node: 1, Peer: -1, Value: 0.0116,
	}))
	want = `{"type":"event","run":0,"t_ns":42,"kind":"tx_atim","node":1,"value":0.0116}` + "\n"
	if line != want {
		t.Fatalf("tx_atim line:\n got %q\nwant %q", line, want)
	}
	line = string(AppendNDJSON(nil, 0, Event{T: 0, Kind: KindWake, Node: 0, Peer: -1}))
	want = `{"type":"event","run":0,"t_ns":0,"kind":"wake","node":0}` + "\n"
	if line != want {
		t.Fatalf("wake line:\n got %q\nwant %q", line, want)
	}
}

func TestProviderContext(t *testing.T) {
	if ProviderFrom(context.Background()) != nil {
		t.Fatal("empty context yields a provider")
	}
	c := &Collector{MaxRuns: 2}
	ctx := WithProvider(context.Background(), c)
	p := ProviderFrom(ctx)
	if p == nil {
		t.Fatal("provider lost in context")
	}
	s0 := p.BeginRun(0)
	s1 := p.BeginRun(1)
	if s0 == nil || s1 == nil {
		t.Fatal("collector refused runs under MaxRuns")
	}
	if p.BeginRun(2) != nil {
		t.Fatal("collector exceeded MaxRuns")
	}
	s0.Record(Event{Kind: KindWake})
	runs := c.Runs()
	if len(runs) != 2 || runs[0].Run != 0 || runs[1].Run != 1 {
		t.Fatalf("collector runs = %+v", runs)
	}
	if len(runs[0].Events) != 1 {
		t.Fatalf("slab 0 has %d events, want 1", len(runs[0].Events))
	}
	if DiscardProvider.BeginRun(5) != Discard {
		t.Fatal("DiscardProvider must hand out the Discard sink")
	}
}

func TestSummarize(t *testing.T) {
	const sec = time.Second
	events := []Event{
		{T: 0, Kind: KindTxData, Node: 0, Peer: -1, Value: 0.0266},
		{T: 1 * sec, Kind: KindTxEnd, Node: 0, Peer: -1},
		{T: 1 * sec, Kind: KindRxData, Node: 1, Peer: 0},
		{T: 1 * sec, Kind: KindDeliver, Node: 1, Peer: 0, Value: 1},
		{T: 2 * sec, Kind: KindSleep, Node: 1},
		{T: 2 * sec, Kind: KindEnergy, Node: 1, Peer: 1, Value: 0.06},
		{T: 4 * sec, Kind: KindWake, Node: 1},
		{T: 5 * sec, Kind: KindDuplicate, Node: 1, Peer: 0},
		{T: 6 * sec, Kind: KindDropCollision, Node: 2, Peer: 0},
		{T: 7 * sec, Kind: KindDeath, Node: 2},
		{T: 7 * sec, Kind: KindSleep, Node: 2},
	}
	sums := Summarize(events, 10*sec)
	if len(sums) != 3 {
		t.Fatalf("got %d summaries, want 3", len(sums))
	}
	n0, n1, n2 := sums[0], sums[1], sums[2]
	if n0.TxData != 1 || n0.Awake != 10*sec {
		t.Fatalf("node 0 summary %+v", n0)
	}
	if n1.RxData != 1 || n1.Delivered != 1 || n1.Duplicates != 1 {
		t.Fatalf("node 1 counters %+v", n1)
	}
	// Node 1: awake [0,2), asleep [2,4), awake [4,10) = 8s.
	if n1.Awake != 8*sec {
		t.Fatalf("node 1 awake %v, want 8s", n1.Awake)
	}
	if n1.EnergyJ != 0.06 {
		t.Fatalf("node 1 energy %v", n1.EnergyJ)
	}
	if !n2.Died || n2.Drops != 1 || n2.Awake != 7*sec {
		t.Fatalf("node 2 summary %+v", n2)
	}
	if Summarize(nil, sec) != nil {
		t.Fatal("empty stream must summarize to nil")
	}
}

func TestAppendSummaryNDJSON(t *testing.T) {
	line := string(AppendSummaryNDJSON(nil, 1, NodeSummary{
		Node: 4, Awake: 2 * time.Second, TxData: 3, RxATIM: 2, EnergyJ: 0.125, Died: true,
	}))
	if !strings.HasPrefix(line, `{"type":"node","run":1,"node":4,"awake_ns":2000000000,`) {
		t.Fatalf("summary line prefix wrong: %q", line)
	}
	if !strings.Contains(line, `"energy_j":0.125`) || !strings.Contains(line, `"died":true`) {
		t.Fatalf("summary line missing fields: %q", line)
	}
	if strings.Contains(string(AppendSummaryNDJSON(nil, 0, NodeSummary{})), "died") {
		t.Fatal("living node must omit died")
	}
}

func TestRecordAllocFree(t *testing.T) {
	var sink Sink = Discard
	ev := Event{T: 1, Kind: KindTxData, Node: 1, Peer: -1, Value: 0.5}
	if n := testing.AllocsPerRun(1000, func() { sink.Record(ev) }); n != 0 {
		t.Fatalf("Discard.Record allocates %v per call", n)
	}
	slab := &Slab{Events: make([]Event, 0, 4096)}
	sink = slab
	if n := testing.AllocsPerRun(1000, func() {
		slab.Events = slab.Events[:0]
		sink.Record(ev)
	}); n != 0 {
		t.Fatalf("pre-sized Slab.Record allocates %v per call", n)
	}
}
