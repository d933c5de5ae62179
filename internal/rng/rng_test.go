package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		t.Fatal("state is all zero")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seed stream repeated values: %d unique of 100", len(seen))
	}
}

// TestFirstFloat64MatchesNew pins FirstFloat64 to the generator it
// shortcuts over sequential seeds, seeds from a stream, the extremes, and
// seeds within a few steps of multiples of the SplitMix64 increment (where
// the draw's input wraps through or lands near zero).
func TestFirstFloat64MatchesNew(t *testing.T) {
	seeds := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, 1 << 63}
	for k := uint64(0); k < 4096; k++ {
		for d := uint64(0); d < 5; d++ {
			seeds = append(seeds, k*splitMixGamma+d-2, -k*splitMixGamma+d-2)
		}
	}
	for s := uint64(0); s < 50_000; s++ {
		seeds = append(seeds, s)
	}
	r := New(99)
	for i := 0; i < 50_000; i++ {
		seeds = append(seeds, r.Uint64())
	}
	for _, s := range seeds {
		if got, want := FirstFloat64(s), New(s).Float64(); got != want {
			t.Fatalf("FirstFloat64(%#x) = %v, New(%#x).Float64() = %v", s, got, s, want)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling streams start identically")
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(7).Split()
	c2 := New(7).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	if err := quick.Check(func(raw uint16) bool {
		n := int(raw%1000) + 1
		v := s.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d count %d deviates from %v by more than 10%%", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolClamping(t *testing.T) {
	s := New(8)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	s := New(9)
	const n = 100000
	for _, p := range []float64{0.1, 0.25, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bool(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Fatalf("Bool(%v) frequency %v", p, got)
		}
	}
}

func TestExpFloat64Mean(t *testing.T) {
	s := New(10)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v far from 1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(12)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleUniformFirstElement(t *testing.T) {
	s := New(13)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		a := []int{0, 1, 2, 3, 4}
		s.Shuffle(len(a), func(x, y int) { a[x], a[y] = a[y], a[x] })
		counts[a[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("first-element bucket %d count %d", i, c)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}
