package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pbbf/internal/scenario"
	"pbbf/internal/sim"
	"pbbf/internal/stats"
	"pbbf/internal/trace"
)

// runByID regenerates one registered scenario through the engine.
func runByID(id string, s Scale) (*stats.Table, error) {
	sc, err := Registry().ByID(id)
	if err != nil {
		return nil, err
	}
	return scenario.Run(sc, s)
}

// tinyScale is even smaller than the quick scale so the whole registry can
// be exercised in one test run.
func tinyScale() Scale {
	s := scenario.Quick()
	s.GridW, s.GridH = 15, 15
	s.IdealUpdates = 2
	s.PercTrials = 10
	s.PercGrids = []int{10, 15}
	s.NetNodes = 20
	s.NetRuns = 1
	s.NetDuration = 200 * time.Second
	s.QSweep = []float64{0, 0.5, 1}
	s.PSweepIdeal = []float64{0.25, 0.75}
	s.PSweepNet = []float64{0.5}
	s.DeltaSweep = []float64{10, 16}
	s.HopNear = 4
	s.HopFar = 8
	return s
}

func TestScaleValidate(t *testing.T) {
	for _, s := range []Scale{scenario.Paper(), scenario.Quick(), tinyScale()} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	bad := scenario.Quick()
	bad.GridW = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero grid accepted")
	}
	bad2 := scenario.Quick()
	bad2.QSweep = nil
	if err := bad2.Validate(); err == nil {
		t.Fatal("empty sweep accepted")
	}
	bad3 := scenario.Quick()
	bad3.HopFar = bad3.HopNear
	if err := bad3.Validate(); err == nil {
		t.Fatal("HopFar == HopNear accepted")
	}
}

func TestSweep(t *testing.T) {
	got := sweepRange(0, 1, 0.25)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v", got)
		}
	}
}

func TestPointSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for a := uint64(0); a < 10; a++ {
		for b := uint64(0); b < 10; b++ {
			s := pointSeed(1, a, b)
			if seen[s] {
				t.Fatalf("seed collision at (%d,%d)", a, b)
			}
			seen[s] = true
		}
	}
	if pointSeed(1, 2, 3) == pointSeed(1, 3, 2) {
		t.Fatal("pointSeed ignores argument order")
	}
}

func TestByID(t *testing.T) {
	sc, err := Registry().ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	if sc.ID != "fig4" {
		t.Fatalf("ID = %q", sc.ID)
	}
	if sc, err := Registry().ByID("  FIG6 "); err != nil || sc.ID != "fig6" {
		t.Fatalf("case/space-insensitive lookup failed: %q, %v", sc.ID, err)
	}
	if _, err := Registry().ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestAllIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range Registry().All() {
		if seen[sc.ID] {
			t.Fatalf("duplicate id %q", sc.ID)
		}
		seen[sc.ID] = true
		if sc.Validate() != nil || sc.Title == "" {
			t.Fatalf("scenario %q incomplete", sc.ID)
		}
	}
	if len(seen) != 31 {
		t.Fatalf("registry has %d entries, want 31 (2 tables + 15 figures + 14 extensions)", len(seen))
	}
}

// TestRegistryMetadataComplete enforces the scenario metadata contract:
// every registered scenario carries an artifact mapping, a summary, and —
// for point-based scenarios — documentation for every parameter its
// points emit.
func TestRegistryMetadataComplete(t *testing.T) {
	s := tinyScale()
	for _, sc := range Registry().All() {
		if sc.Artifact == "" || sc.Summary == "" || sc.Title == "" {
			t.Fatalf("%s: incomplete metadata: %+v", sc.ID, sc)
		}
		if sc.Points == nil {
			continue
		}
		if len(sc.Params) == 0 {
			t.Fatalf("%s: point-based scenario without parameter docs", sc.ID)
		}
		docs := map[string]bool{}
		for _, d := range sc.Params {
			docs[d.Name] = true
		}
		pts, err := sc.Points(s)
		if err != nil {
			t.Fatalf("%s: Points: %v", sc.ID, err)
		}
		if len(pts) == 0 {
			t.Fatalf("%s: empty parameter space", sc.ID)
		}
		for _, pt := range pts {
			if pt.Series == "" {
				t.Fatalf("%s: point %+v without series", sc.ID, pt)
			}
			for name := range pt.Params {
				if !docs[name] {
					t.Fatalf("%s: parameter %q undocumented", sc.ID, name)
				}
			}
		}
	}
}

// TestExtWakeupDutyCycleTradeoff checks the new duty-cycle scenario: for
// PSM, stretching the frame (lower duty cycle) must cost per-hop latency,
// and the energy carried in the result triple must grow with the duty
// cycle — the wakeup schedule's own time-vs-energy trade-off.
func TestExtWakeupDutyCycleTradeoff(t *testing.T) {
	s := tinyScale()
	sc, err := Registry().ByID("extwakeup")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := scenario.RunAll([]scenario.Scenario{sc}, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := outs[0]
	psm := out.Table.SeriesByName("PSM")
	if psm == nil || psm.Len() < 2 {
		t.Fatalf("PSM series incomplete: %+v", out.Table)
	}
	// Latency at the lowest duty cycle must exceed latency at the highest.
	first, last := psm.Y[0], psm.Y[psm.Len()-1]
	if first <= last {
		t.Fatalf("PSM per-hop latency not decreasing with duty cycle: %v -> %v", first, last)
	}
	// Energy must rise with the duty cycle within each series.
	byDuty := map[string][]float64{}
	for _, po := range out.Points {
		byDuty[po.Series] = append(byDuty[po.Series], po.Result.EnergyJ)
	}
	for series, energies := range byDuty {
		if len(energies) != len(s.DutySweep) {
			t.Fatalf("%s: %d energy points, want %d", series, len(energies), len(s.DutySweep))
		}
		if energies[0] >= energies[len(energies)-1] {
			t.Fatalf("%s: energy not increasing with duty cycle: %v", series, energies)
		}
	}
}

func TestTables(t *testing.T) {
	for _, id := range []string{"table1", "table2"} {
		tbl, err := runByID(id, tinyScale())
		if err != nil {
			t.Fatal(err)
		}
		out := tbl.Render()
		if !strings.Contains(out, "Table") {
			t.Fatalf("%s render missing title:\n%s", id, out)
		}
	}
}

func TestFig4ShowsThreshold(t *testing.T) {
	tbl, err := runByID("fig4", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// PSM and NO PSM must be pinned at 1 for every q.
	for _, name := range []string{"PSM", "NO PSM"} {
		s := tbl.SeriesByName(name)
		if s == nil {
			t.Fatalf("missing series %q", name)
		}
		for i, y := range s.Y {
			if y != 1 {
				t.Fatalf("%s at x=%v is %v, want 1", name, s.X[i], y)
			}
		}
	}
	// PBBF-0.75 must be unreliable at q=0 and reliable at q=1.
	s := tbl.SeriesByName("PBBF-0.75")
	if s == nil {
		t.Fatal("missing PBBF-0.75")
	}
	y0, ok0 := s.YAt(0)
	y1, ok1 := s.YAt(1)
	if !ok0 || !ok1 {
		t.Fatal("sweep endpoints missing")
	}
	if y0 >= y1 || y1 < 0.99 {
		t.Fatalf("no threshold: y(0)=%v y(1)=%v", y0, y1)
	}
}

func TestFig6MonotoneReliability(t *testing.T) {
	tbl, err := runByID("fig6", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// At each grid size, higher reliability needs at least as many bonds.
	lo := tbl.SeriesByName("80% Reliability")
	hi := tbl.SeriesByName("100% Reliability")
	if lo == nil || hi == nil {
		t.Fatal("missing reliability series")
	}
	for i := range lo.X {
		yLo := lo.Y[i]
		yHi, ok := hi.YAt(lo.X[i])
		if !ok {
			t.Fatalf("grid %v missing from 100%% series", lo.X[i])
		}
		if yHi < yLo {
			t.Fatalf("100%% ratio %v below 80%% ratio %v at grid %v", yHi, yLo, lo.X[i])
		}
	}
}

func TestFig7FrontierMonotoneInP(t *testing.T) {
	tbl, err := runByID("fig7", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.SeriesByName("99% Reliability")
	if s == nil {
		t.Fatal("missing 99% series")
	}
	prev := -1.0
	for i, y := range s.Y {
		if y < prev-1e-9 {
			t.Fatalf("min q decreased at p=%v: %v after %v", s.X[i], y, prev)
		}
		prev = y
		if y < 0 || y > 1 {
			t.Fatalf("min q %v out of range", y)
		}
	}
}

func TestFig8LinearEnergy(t *testing.T) {
	tbl, err := runByID("fig8", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// All PBBF series overlap (p-independence): compare at q=0.5.
	var at05 []float64
	for _, s := range tbl.Series {
		if strings.HasPrefix(s.Name, "PBBF") {
			if y, ok := s.YAt(0.5); ok {
				at05 = append(at05, y)
			}
		}
	}
	if len(at05) < 2 {
		t.Fatal("not enough PBBF series")
	}
	for _, y := range at05[1:] {
		if y < at05[0]*0.95 || y > at05[0]*1.05 {
			t.Fatalf("energy depends on p: %v", at05)
		}
	}
	// NO PSM ≈ 10x PSM at the Table 1 duty cycle.
	psm, _ := tbl.SeriesByName("PSM").YAt(0.5)
	on, _ := tbl.SeriesByName("NO PSM").YAt(0.5)
	if on < psm*8 {
		t.Fatalf("NO PSM %v not ≈10x PSM %v", on, psm)
	}
}

func TestFig12TradeoffShape(t *testing.T) {
	tbl, err := runByID("fig12", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Series[0]
	if s.Len() < 2 {
		t.Fatalf("trade-off has %d points", s.Len())
	}
	// Inverse relation: sort by latency, energy must not increase.
	type pt struct{ x, y float64 }
	pts := make([]pt, s.Len())
	for i := range s.X {
		pts[i] = pt{s.X[i], s.Y[i]}
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].x < pts[j].x && pts[i].y < pts[j].y-1e-9 {
				t.Fatalf("not inverse: (%v,%v) vs (%v,%v)", pts[i].x, pts[i].y, pts[j].x, pts[j].y)
			}
		}
	}
}

func TestFig13EnergyOrdering(t *testing.T) {
	tbl, err := runByID("fig13", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	psm, ok1 := tbl.SeriesByName("PSM").YAt(0.5)
	on, ok2 := tbl.SeriesByName("NO PSM").YAt(0.5)
	if !ok1 || !ok2 {
		t.Fatal("baseline points missing")
	}
	if psm >= on {
		t.Fatalf("PSM energy %v not below NO PSM %v", psm, on)
	}
	// PBBF energy at q=1 must approach NO PSM, at q=0 approach PSM.
	pbbf := tbl.SeriesByName("PBBF-0.5")
	if pbbf == nil {
		t.Fatal("missing PBBF-0.5")
	}
	y0, _ := pbbf.YAt(0)
	y1, _ := pbbf.YAt(1)
	if y0 >= y1 {
		t.Fatalf("PBBF energy not increasing in q: %v -> %v", y0, y1)
	}
}

func TestFig16ReceivedBounds(t *testing.T) {
	tbl, err := runByID("fig16", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tbl.Series {
		for i, y := range s.Y {
			if y < 0 || y > 1 {
				t.Fatalf("%s at x=%v out of [0,1]: %v", s.Name, s.X[i], y)
			}
		}
	}
	// PSM stays near-perfect.
	for _, y := range tbl.SeriesByName("PSM").Y {
		if y < 0.9 {
			t.Fatalf("PSM reliability dipped to %v", y)
		}
	}
}

func TestFig17LatencyFallsWithDensity(t *testing.T) {
	tbl, err := runByID("fig17", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.SeriesByName("PSM")
	if s == nil || s.Len() < 2 {
		t.Fatal("PSM series incomplete")
	}
	first, last := s.Y[0], s.Y[s.Len()-1]
	if last > first*1.25 {
		t.Fatalf("PSM latency rose with density: %v -> %v", first, last)
	}
}

func TestRegistrySmokeAll(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := tinyScale()
	for _, sc := range Registry().All() {
		tbl, err := scenario.Run(sc, s)
		if err != nil {
			t.Fatalf("%s: %v", sc.ID, err)
		}
		if tbl.Title == "" || len(tbl.Series) == 0 {
			t.Fatalf("%s produced empty table", sc.ID)
		}
		if out := tbl.Render(); len(out) == 0 || !strings.Contains(out, "#") {
			t.Fatalf("%s render empty", sc.ID)
		}
		if csv := tbl.CSV(); !strings.Contains(csv, ",") {
			t.Fatalf("%s csv empty", sc.ID)
		}
	}
}

// TestNetsimDeterministicAcrossWorkers is the pooled-kernel determinism
// gate: the Section 5 netsim scenario must produce byte-identical Results
// (tables, per-point energy/latency/delivery, everything that reaches the
// JSON output) no matter how the point sweep is scheduled. A kernel
// optimization that perturbed event order or RNG consumption would show up
// here before it could corrupt a paper artifact.
func TestNetsimDeterministicAcrossWorkers(t *testing.T) {
	sc, err := Registry().ByID("fig13")
	if err != nil {
		t.Fatal(err)
	}
	s := scenario.Quick()
	s.NetRuns = 1
	s.NetDuration = 200 * time.Second
	s.Seed = 42
	blobFor := func(workers int) []byte {
		outs, err := scenario.RunAll([]scenario.Scenario{sc}, s, workers)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(outs)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	want := blobFor(1)
	for _, workers := range []int{2, 8} {
		if got := blobFor(workers); !bytes.Equal(want, got) {
			t.Fatalf("workers=%d changed the netsim Result bytes", workers)
		}
	}
}

// seriesY returns the y values of the named series of a regenerated
// scenario, keyed by x, failing the test if the series is absent.
func seriesY(t *testing.T, id, series string, s Scale) map[float64]float64 {
	t.Helper()
	tbl, err := runByID(id, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, ser := range tbl.Series {
		if ser.Name != series {
			continue
		}
		out := make(map[float64]float64, ser.Len())
		for i := 0; i < ser.Len(); i++ {
			out[ser.X[i]] = ser.Y[i]
		}
		return out
	}
	t.Fatalf("%s: series %q missing", id, series)
	return nil
}

// TestExtChurnReliabilityFalls: killing nodes mid-run must never improve
// delivery — for every protocol, the churn-free point bounds the
// max-churn point from above.
func TestExtChurnReliabilityFalls(t *testing.T) {
	s := tinyScale()
	for _, series := range []string{"PSM", "PBBF-0.5", "NO PSM"} {
		y := seriesY(t, "extchurn", series, s)
		if y[0] < y[0.3]-1e-9 {
			t.Fatalf("%s: delivery rose under churn: %v -> %v", series, y[0], y[0.3])
		}
	}
}

// TestExtLinkLossShape: the always-on baseline out-delivers PSM once links
// get bad (awake nodes give every retransmission a chance), and PSM itself
// degrades from its clean-channel delivery.
func TestExtLinkLossShape(t *testing.T) {
	s := tinyScale()
	psm := seriesY(t, "extlinkloss", "PSM", s)
	noPSM := seriesY(t, "extlinkloss", "NO PSM", s)
	if noPSM[0.4] < psm[0.4]-1e-9 {
		t.Fatalf("NO PSM (%v) under PSM (%v) at 40%% mean link loss", noPSM[0.4], psm[0.4])
	}
	if psm[0] < psm[0.4]-1e-9 {
		t.Fatalf("PSM delivery rose with link loss: %v -> %v", psm[0], psm[0.4])
	}
}

// TestExtClusterLatencyGrowsWithSpread: for PSM, spreading the clusters
// apart stretches hop distances and therefore per-update latency, while
// the always-on baseline stays within a few seconds regardless — the
// spread axis stresses sleeping protocols, not the network itself.
func TestExtClusterLatencyGrowsWithSpread(t *testing.T) {
	s := tinyScale()
	psm := seriesY(t, "extcluster", "PSM", s)
	if psm[4] <= psm[0.5] {
		t.Fatalf("PSM latency did not grow with cluster spread: %v -> %v", psm[0.5], psm[4])
	}
	for x, y := range seriesY(t, "extcluster", "NO PSM", s) {
		if y > 3 {
			t.Fatalf("NO PSM latency %v at spread %v — always-on should be near-immediate", y, x)
		}
	}
}

// TestExtCorridorLatencyGrowsWithAspect: stretching the square into an 8:1
// strip lengthens the broadcast's hop chain under PSM.
func TestExtCorridorLatencyGrowsWithAspect(t *testing.T) {
	s := tinyScale()
	psm := seriesY(t, "extcorridor", "PSM", s)
	if psm[8] <= psm[1] {
		t.Fatalf("PSM latency did not grow with corridor aspect: %v -> %v", psm[1], psm[8])
	}
}

// TestPointResultsDependOnParamsAlone guards the contract the engine's
// repeat de-duplication rests on: a point's result depends only on the
// scale and its Params. Every point the engine returns, repeats included,
// must equal a direct ComputePoint of that point, which is how the dist
// worker and `pbbf trace` compute one.
func TestPointResultsDependOnParamsAlone(t *testing.T) {
	s := scenario.Quick()
	s.Seed = 1
	outs, err := scenario.RunAll(Registry().All(), s, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range outs {
		for _, po := range out.Points {
			got, err := out.Scenario.ComputePoint(context.Background(), s, po.Point)
			if err != nil {
				t.Fatalf("%s: %v", out.Scenario.ID, err)
			}
			if got != po.Result {
				t.Fatalf("%s: point %s: engine %+v, direct %+v", out.Scenario.ID, po.Point.Label(), po.Result, got)
			}
		}
	}
}

// TestDiscardTraceIsNeutral: recording every event into trace.Discard
// changes no output of any registry scenario and fires no extra kernel
// event. A trace site that draws randomness, mutates simulation state or
// schedules an event of its own fails here.
func TestDiscardTraceIsNeutral(t *testing.T) {
	s := scenario.Quick()
	traced := trace.WithProvider(context.Background(), trace.DiscardProvider)
	run := func(ctx context.Context, sc scenario.Scenario) ([]byte, uint64) {
		fired := sim.TotalFired()
		outs, err := scenario.RunAllCtx(ctx, []scenario.Scenario{sc}, s, scenario.RunOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", sc.ID, err)
		}
		fired = sim.TotalFired() - fired
		blob, err := json.Marshal(outs)
		if err != nil {
			t.Fatalf("%s: %v", sc.ID, err)
		}
		return blob, fired
	}
	for _, sc := range Registry().All() {
		plain, plainFired := run(context.Background(), sc)
		got, gotFired := run(traced, sc)
		if !bytes.Equal(plain, got) {
			t.Errorf("%s: tracing into Discard changed the output", sc.ID)
		}
		if plainFired != gotFired {
			t.Errorf("%s: %d kernel events untraced, %d traced", sc.ID, plainFired, gotFired)
		}
	}
}

// TestRepeatedPointCounts pins how many registry points repeat an earlier
// point's Series and Params, and so are computed once per plan: the PSM
// and NO PSM baselines of the q-sweeps, enumerated at every q.
func TestRepeatedPointCounts(t *testing.T) {
	var computes atomic.Int64
	var scs []scenario.Scenario
	for _, sc := range Registry().All() {
		if !sc.PointBased() {
			continue
		}
		sc.RunPoint = func(scenario.Scale, scenario.Point) (scenario.Result, error) {
			computes.Add(1)
			return scenario.Result{}, nil
		}
		sc.RunPointCtx = nil
		scs = append(scs, sc)
	}
	for _, c := range []struct {
		s                Scale
		points, computes int64
	}{
		{scenario.Quick(), 475, 395},
		{scenario.Bench(), 316, 276},
		{scenario.Paper(), 1047, 847},
	} {
		computes.Store(0)
		outs, err := scenario.RunAll(scs, c.s, 1)
		if err != nil {
			t.Fatal(err)
		}
		var points int64
		for _, out := range outs {
			points += int64(len(out.Points))
		}
		if points != c.points || computes.Load() != c.computes {
			t.Fatalf("%d points, %d computed; want %d and %d", points, computes.Load(), c.points, c.computes)
		}
	}
}
