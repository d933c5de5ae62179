package idealsim

import (
	"math"
	"testing"

	"pbbf/internal/core"
	"pbbf/internal/rng"
	"pbbf/internal/topo"
)

// referenceCoin is the stay-awake coin as a float compare, the definition
// the integer threshold must reproduce exactly.
func referenceCoin(seed uint64, node topo.NodeID, frame int64, q float64) bool {
	if q <= 0 {
		return false
	}
	if q >= 1 {
		return true
	}
	mix := seed ^ uint64(node)*0x9e3779b97f4a7c15 ^ uint64(frame)*0xc2b2ae3d27d4eb4f
	return rng.FirstFloat64(mix) < q
}

// checkThreshold reports the first 53-bit k near coinThreshold(q) (and at
// both ends of the range) where the integer compare and the float compare
// k/2^53 < q disagree.
func checkThreshold(t *testing.T, q float64) {
	t.Helper()
	th := coinThreshold(q)
	ks := []uint64{0, 1, 1<<53 - 2, 1<<53 - 1}
	for d := uint64(0); d < 5; d++ {
		if k := th + d - 2; k < 1<<53 {
			ks = append(ks, k)
		}
	}
	for _, k := range ks {
		if got, want := k < th, float64(k)/(1<<53) < q; got != want {
			t.Fatalf("q=%v (threshold %d): k=%d integer compare %v, float compare %v", q, th, k, got, want)
		}
	}
}

// poolFor returns a pool whose coin is set for (seed, q), as Run sets it.
func poolFor(seed uint64, q float64) *Pool {
	return &Pool{cfg: Config{Seed: seed, Params: core.Params{Q: q}}, coin: coinThreshold(q)}
}

func TestCoinThresholdMatchesFloatCompare(t *testing.T) {
	const ulp = 1.0 / (1 << 53) // 2^-53
	pinned := []struct {
		q    float64
		want uint64
	}{
		{0, 0},
		{-0.5, 0},
		{math.NaN(), 0},
		{math.SmallestNonzeroFloat64, 1},
		{ulp, 1},
		{3 * ulp, 3},
		{0.25, 1 << 51},
		{0.5, 1 << 52},
		{math.Nextafter(0.5, 0), 1 << 52},
		{math.Nextafter(0.5, 1), 1<<52 + 1},
		{math.Nextafter(ulp, 1), 2},
		{math.Nextafter(ulp, 0), 1},
		{1 - ulp, 1<<53 - 1},
		{1, 1 << 53},
		{1.5, 1 << 53},
	}
	for _, c := range pinned {
		if got := coinThreshold(c.q); got != c.want {
			t.Fatalf("coinThreshold(%v) = %d, want %d", c.q, got, c.want)
		}
		checkThreshold(t, c.q)
	}
	// Every q that is an integer multiple of 2^-53, and its neighbours.
	for _, k := range []uint64{2, 7, 1 << 20, 1<<52 - 1, 1<<52 + 1, 1<<53 - 3} {
		q := float64(k) * ulp
		for _, qq := range []float64{q, math.Nextafter(q, 0), math.Nextafter(q, 1)} {
			checkThreshold(t, qq)
		}
	}
	// The pooled coin against the float-compare coin on real mixes.
	r := rng.New(17)
	for _, q := range []float64{ulp, 0.1, 0.25, 1.0 / 3, 0.5, 0.9, 1 - ulp} {
		p := poolFor(r.Uint64(), q)
		for i := 0; i < 2000; i++ {
			node, frame := topo.NodeID(r.Intn(10_000)), int64(r.Intn(1_000))
			if got, want := p.stayAwakeCoin(node, frame), referenceCoin(p.cfg.Seed, node, frame, q); got != want {
				t.Fatalf("q=%v node %d frame %d: coin %v, float compare %v", q, node, frame, got, want)
			}
		}
	}
}

// FuzzStayAwakeThreshold checks, for any seed, node, frame and q, that the
// pooled coin equals the float-compare coin, that the per-node frame count
// equals counting the coin frame by frame, and that the integer compare
// agrees with the float compare at the threshold offset by delta.
func FuzzStayAwakeThreshold(f *testing.F) {
	f.Add(uint64(1), uint32(0), uint32(0), 0.25, int8(0))
	f.Add(uint64(7), uint32(450), uint32(99), 0.5, int8(-1))
	f.Add(uint64(0), uint32(1), uint32(3), 1.0/(1<<53), int8(1))
	f.Add(uint64(math.MaxUint64), uint32(1599), uint32(40), math.Nextafter(1, 0), int8(-2))
	f.Add(uint64(3), uint32(5), uint32(5), 0.0, int8(2))
	f.Add(uint64(3), uint32(5), uint32(5), 1.0, int8(-3))
	f.Fuzz(func(t *testing.T, seed uint64, node, frame uint32, q float64, delta int8) {
		p := poolFor(seed, q)
		n, fr := topo.NodeID(node), int64(frame)
		if got, want := p.stayAwakeCoin(n, fr), referenceCoin(seed, n, fr, q); got != want {
			t.Fatalf("seed %d node %d frame %d q %v: coin %v, float compare %v", seed, n, fr, q, got, want)
		}
		frames := int64(frame % 64)
		var count int64
		for f := int64(0); f < frames; f++ {
			if referenceCoin(seed, n, f, q) {
				count++
			}
		}
		if got := p.awakeFrames(n, frames); got != count {
			t.Fatalf("seed %d node %d q %v: awakeFrames(%d) = %d, counted %d", seed, n, q, frames, got, count)
		}
		th := int64(coinThreshold(q))
		k := min(max(th+int64(delta), 0), 1<<53-1)
		if got, want := uint64(k) < uint64(th), float64(k)/(1<<53) < q; got != want {
			t.Fatalf("q %v: k=%d < threshold %d is %v, float compare %v", q, k, th, got, want)
		}
	})
}
