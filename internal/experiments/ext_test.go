package experiments

import (
	"testing"
)

func TestExtGossipThresholdOrdering(t *testing.T) {
	tbl, err := runByID("extgossip", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	site := tbl.SeriesByName("gossip (site percolation)")
	bond := tbl.SeriesByName("PBBF links (bond percolation)")
	if site == nil || bond == nil {
		t.Fatal("missing series")
	}
	// At probability 0.55 (between the bond pc 0.5 and site pc 0.593),
	// bond percolation must cover more than site percolation.
	ySite, ok1 := site.YAt(0.55)
	yBond, ok2 := bond.YAt(0.55)
	if !ok1 || !ok2 {
		// Sweep is fixed at 0.1 steps starting at 0.1; 0.55 not present.
		// Use 0.6 instead, still below the finite-size site threshold.
		ySite, ok1 = site.YAt(0.6)
		yBond, ok2 = bond.YAt(0.6)
	}
	if !ok1 || !ok2 {
		t.Fatal("comparison point missing from sweep")
	}
	if yBond <= ySite {
		t.Fatalf("bond coverage %v not above site coverage %v near the thresholds", yBond, ySite)
	}
	// Both models approach full coverage at probability 1.
	ySite1, _ := site.YAt(1)
	yBond1, _ := bond.YAt(1)
	if ySite1 < 0.99 || yBond1 < 0.99 {
		t.Fatalf("coverage at p=1: site=%v bond=%v", ySite1, yBond1)
	}
}

func TestExtKBatchingHelps(t *testing.T) {
	tbl, err := runByID("extk", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	k1 := tbl.SeriesByName("k=1")
	k4 := tbl.SeriesByName("k=4")
	if k1 == nil || k4 == nil {
		t.Fatal("missing series")
	}
	// Averaged over the sweep, batching must not hurt, and at the lossy
	// low-q end it should measurably help.
	var sum1, sum4 float64
	for i := range k1.Y {
		sum1 += k1.Y[i]
	}
	for i := range k4.Y {
		sum4 += k4.Y[i]
	}
	if sum4 < sum1-0.05*float64(len(k1.Y)) {
		t.Fatalf("k=4 mean %v below k=1 mean %v", sum4/float64(len(k4.Y)), sum1/float64(len(k1.Y)))
	}
}

func TestExtAdaptiveRecoversReliability(t *testing.T) {
	tbl, err := runByID("extadaptive", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	static := tbl.SeriesByName("static PBBF-0.25 (q=0.25)")
	adaptive := tbl.SeriesByName("adaptive PBBF")
	if static == nil || adaptive == nil {
		t.Fatal("missing series")
	}
	// At the highest injected loss the adaptive controller must match or
	// beat the static setting.
	sHigh := static.Y[static.Len()-1]
	aHigh := adaptive.Y[adaptive.Len()-1]
	if aHigh < sHigh-0.05 {
		t.Fatalf("adaptive %v below static %v at max loss", aHigh, sHigh)
	}
	for _, y := range adaptive.Y {
		if y < 0 || y > 1 {
			t.Fatalf("adaptive fraction %v out of range", y)
		}
	}
}

func TestExtLossDegradesGracefully(t *testing.T) {
	tbl, err := runByID("extloss", tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	clean := tbl.SeriesByName("loss=0")
	noisy := tbl.SeriesByName("loss=0.3")
	if clean == nil || noisy == nil {
		t.Fatal("missing series")
	}
	// At the high-q end, loss must cost reliability but not collapse it
	// (redundant rebroadcasts absorb independent losses).
	cEnd := clean.Y[clean.Len()-1]
	nEnd := noisy.Y[noisy.Len()-1]
	if nEnd > cEnd+1e-9 {
		t.Fatalf("lossy channel beat clean channel: %v > %v", nEnd, cEnd)
	}
	if nEnd < 0.3 {
		t.Fatalf("reliability collapsed under 30%% loss: %v", nEnd)
	}
}
