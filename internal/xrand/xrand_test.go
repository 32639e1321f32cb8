package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
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
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	// A child stream must not replay the parent's sequence, and two
	// children must differ from each other.
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	p0 := New(7)
	p0.Uint64() // advance like parent did for c1
	p0.Uint64() // and c2
	for i := 0; i < 100; i++ {
		v1, v2, vp := c1.Uint64(), c2.Uint64(), p0.Uint64()
		if v1 == v2 || v1 == vp || v2 == vp {
			t.Fatalf("correlated draws at %d", i)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	counts := make([]int, 7)
	for i := 0; i < 7000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("Intn(7) bucket %d count %d badly skewed", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(4)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRange(t *testing.T) {
	r := New(6)
	for i := 0; i < 1000; i++ {
		v := r.Range(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Range(10,20) = %v", v)
		}
	}
}

func TestBool(t *testing.T) {
	r := New(7)
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	if trues < 2200 || trues > 2800 {
		t.Fatalf("Bool(0.25) hit %d/10000", trues)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("Normal stdev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestLogNormalMoments(t *testing.T) {
	r := New(9)
	const n = 300000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.LogNormal(100, 0.3)
		if v <= 0 {
			t.Fatal("LogNormal produced non-positive value")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-100) > 1.5 {
		t.Fatalf("LogNormal mean = %v, want ~100", mean)
	}
}

func TestLogNormalZeroCV(t *testing.T) {
	r := New(10)
	if v := r.LogNormal(50, 0); v != 50 {
		t.Fatalf("LogNormal(50, 0) = %v, want exactly 50", v)
	}
}

// inlineLogNormal is the per-draw formula LogNormalDist replaced, kept
// as the reference the precomputed distribution must match bit for bit.
func inlineLogNormal(r *Rand, mean, cv float64) float64 {
	if cv <= 0 {
		return mean
	}
	sigma2 := math.Log(1 + cv*cv)
	mu := math.Log(mean) - sigma2/2
	return math.Exp(mu + math.Sqrt(sigma2)*r.NormFloat64())
}

func TestLogNormalDistMatchesInlineFormula(t *testing.T) {
	means := []float64{1e-9, 0.5, 1, 7, 100, 3.2e6, 1.7e9}
	cvs := []float64{-1, 0, 1e-12, 0.01, 0.05, 0.3, 1, 4}
	for _, mean := range means {
		for _, cv := range cvs {
			d := NewLogNormal(mean, cv)
			got, want, wrap := New(77), New(77), New(77)
			for i := 0; i < 200; i++ {
				g, w, v := d.Draw(got), inlineLogNormal(want, mean, cv), wrap.LogNormal(mean, cv)
				if math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("mean %v cv %v draw %d: Draw %v, LogNormal %v, inline formula %v", mean, cv, i, g, v, w)
				}
			}
			// The streams must sit at the same position afterwards, and a
			// constant distribution (cv <= 0) must have consumed nothing.
			a, b, fresh := got.Uint64(), want.Uint64(), New(77).Uint64()
			if a != b {
				t.Fatalf("mean %v cv %v: stream positions diverged", mean, cv)
			}
			if cv <= 0 && a != fresh {
				t.Fatalf("mean %v cv %v: constant draws consumed randomness", mean, cv)
			}
		}
	}
}

func TestNewLogNormalRejectsNonPositiveMean(t *testing.T) {
	for _, mean := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLogNormal(%v, 0.3) did not panic", mean)
				}
			}()
			NewLogNormal(mean, 0.3)
		}()
	}
}

// BenchmarkLogNormal measures one draw through the wrapper, which
// rebuilds the distribution's parameters every call.
func BenchmarkLogNormal(b *testing.B) {
	r := New(1)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += r.LogNormal(1, 0.5)
	}
	if sink <= 0 {
		b.Fatal("non-positive sum")
	}
}

// BenchmarkLogNormalDist measures one draw from a prebuilt distribution,
// the form the workloads' per-transaction loops use.
func BenchmarkLogNormalDist(b *testing.B) {
	r := New(1)
	d := NewLogNormal(1, 0.5)
	sink := 0.0
	for i := 0; i < b.N; i++ {
		sink += d.Draw(r)
	}
	if sink <= 0 {
		b.Fatal("non-positive sum")
	}
}

func TestExpMean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(4)
		if v < 0 {
			t.Fatal("Exp produced negative value")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-4) > 0.05 {
		t.Fatalf("Exp mean = %v, want ~4", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	for trial := 0; trial < 50; trial++ {
		n := 1 + trial
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(13)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("Shuffle duplicated %d: %v", v, xs)
		}
		seen[v] = true
	}
}

func TestPickWeighted(t *testing.T) {
	r := New(14)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Pick([]float64{1, 2, 7})]++
	}
	if counts[0] < 2000 || counts[0] > 4000 {
		t.Errorf("weight-1 bucket = %d, want ~3000", counts[0])
	}
	if counts[2] < 19000 || counts[2] > 23000 {
		t.Errorf("weight-7 bucket = %d, want ~21000", counts[2])
	}
}

func TestPickPanics(t *testing.T) {
	for _, ws := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Pick(%v) did not panic", ws)
				}
			}()
			New(1).Pick(ws)
		}()
	}
}

// Property: Intn never escapes its bound for any seed/bound combination.
func TestIntnProperty(t *testing.T) {
	f := func(seed uint64, bound uint16) bool {
		n := int(bound%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: streams from Split never collide with each other in their
// first draws (collision probability ~2^-64 per pair, so any hit is a
// bug).
func TestSplitProperty(t *testing.T) {
	f := func(seed uint64) bool {
		root := New(seed)
		const k = 8
		var firsts [k]uint64
		for i := 0; i < k; i++ {
			firsts[i] = root.Split().Uint64()
		}
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if firsts[i] == firsts[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
