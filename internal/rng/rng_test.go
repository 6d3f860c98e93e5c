package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d vs %d", i, av, bv)
		}
	}
}

func TestNewSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	zeros := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("seed 0 produced %d zero outputs; generator degenerate", zeros)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	c0 := parent.Derive(0)
	c1 := parent.Derive(1)
	collisions := 0
	for i := 0; i < 1000; i++ {
		if c0.Uint64() == c1.Uint64() {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("sibling streams collided %d times in 1000 draws", collisions)
	}
}

func TestDeriveRepeatable(t *testing.T) {
	parent := New(7)
	a := parent.Derive(5)
	// Derive must not consume parent state: deriving again gives the
	// identical child stream.
	b := parent.Derive(5)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("re-derived child diverged at %d", i)
		}
	}
}

// TestChildIsDeriveByValue: Child yields Derive's stream, so node RNGs
// stored by value keep every seeded run's choices.
func TestChildIsDeriveByValue(t *testing.T) {
	parent := New(11)
	for _, i := range []uint64{0, 1, 62499, 1 << 40} {
		a, b := parent.Derive(i), parent.Child(i)
		for k := 0; k < 100; k++ {
			if av, bv := a.Uint64(), b.Uint64(); av != bv {
				t.Fatalf("child %d diverged from Derive at draw %d", i, k)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = parent.Child(5) }); n != 0 {
		t.Fatalf("Child allocated %v times", n)
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Derive(3)
	_ = a.Derive(4)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("Derive advanced parent state (step %d)", i)
		}
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 10, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniformity(t *testing.T) {
	r := New(11)
	const n = 10
	const draws = 100000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from expected %.0f", i, c, want)
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestBoolBalance(t *testing.T) {
	r := New(13)
	const draws = 100000
	heads := 0
	for i := 0; i < draws; i++ {
		if r.Bool() {
			heads++
		}
	}
	if math.Abs(float64(heads)-draws/2) > 4*math.Sqrt(draws/4) {
		t.Fatalf("coin heavily biased: %d heads of %d", heads, draws)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := r.Perm(n)
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

func TestPermUniformFirstElement(t *testing.T) {
	r := New(19)
	const n = 5
	const draws = 50000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Perm first-element bucket %d = %d, want ~%.0f", i, c, want)
		}
	}
}

func TestShuffleSwapCount(t *testing.T) {
	r := New(23)
	calls := 0
	r.Shuffle(10, func(i, j int) { calls++ })
	if calls != 9 {
		t.Fatalf("Shuffle(10) made %d swap calls, want 9", calls)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(29)
	const p = 0.25
	const draws = 200000
	sum := 0
	for i := 0; i < draws; i++ {
		g := r.Geometric(p)
		if g < 1 {
			t.Fatalf("Geometric returned %d < 1", g)
		}
		sum += g
	}
	mean := float64(sum) / draws
	if math.Abs(mean-1/p) > 0.1 {
		t.Fatalf("Geometric(%v) mean %.3f, want ~%.3f", p, mean, 1/p)
	}
}

func TestGeometricPOne(t *testing.T) {
	r := New(31)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1); g != 1 {
			t.Fatalf("Geometric(1) = %d, want 1", g)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Geometric(%v) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(37)
	cases := []struct {
		n int
		p float64
	}{{20, 0.5}, {1000, 0.01}, {500, 0.9}}
	for _, c := range cases {
		const draws = 20000
		sum := 0
		for i := 0; i < draws; i++ {
			b := r.Binomial(c.n, c.p)
			if b < 0 || b > c.n {
				t.Fatalf("Binomial(%d,%v) = %d out of range", c.n, c.p, b)
			}
			sum += b
		}
		mean := float64(sum) / draws
		want := float64(c.n) * c.p
		sd := math.Sqrt(float64(c.n) * c.p * (1 - c.p))
		if math.Abs(mean-want) > 5*sd/math.Sqrt(draws)*10 {
			t.Fatalf("Binomial(%d,%v) mean %.3f, want ~%.3f", c.n, c.p, mean, want)
		}
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := New(41)
	if v := r.Binomial(0, 0.5); v != 0 {
		t.Fatalf("Binomial(0,.5) = %d", v)
	}
	if v := r.Binomial(10, 0); v != 0 {
		t.Fatalf("Binomial(10,0) = %d", v)
	}
	if v := r.Binomial(10, 1); v != 10 {
		t.Fatalf("Binomial(10,1) = %d", v)
	}
}

func TestMix64NotIdentity(t *testing.T) {
	if Mix64(0) == 0 && Mix64(1) == 1 {
		t.Fatal("Mix64 looks like identity")
	}
	if Mix64(12345) == Mix64(12346) {
		t.Fatal("Mix64 collided on adjacent inputs")
	}
}

// Property: Uint64n always in range, over random n and seeds.
func TestQuickUint64nInRange(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		r := New(seed)
		for i := 0; i < 10; i++ {
			if r.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds give identical derived trees of streams.
func TestQuickDeriveDeterministic(t *testing.T) {
	f := func(seed, idx uint64) bool {
		a := New(seed).Derive(idx)
		b := New(seed).Derive(idx)
		for i := 0; i < 8; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64n(12345)
	}
	_ = sink
}
