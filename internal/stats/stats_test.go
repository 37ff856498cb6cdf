package stats

import (
	"math"
	"sort"
	"testing"
)

func TestNewRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestNewRNGDifferentSeeds(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) covered only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(3, 5)
		if v < 3 || v > 5 {
			t.Fatalf("IntRange out of range: %d", v)
		}
	}
	if got := r.IntRange(4, 4); got != 4 {
		t.Fatalf("degenerate IntRange = %d", got)
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(17)
	var sum, sumsq float64
	const n = 100000
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRNG(19)
	const n = 50001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.LogNormal(2.0, 1.0)
	}
	sort.Float64s(xs)
	median := xs[n/2]
	want := math.Exp(2.0)
	if math.Abs(median-want)/want > 0.05 {
		t.Fatalf("lognormal median = %v, want ~%v", median, want)
	}
}

func TestZipfRange(t *testing.T) {
	r := NewRNG(31)
	counts := make([]int, 11)
	for i := 0; i < 20000; i++ {
		k := r.Zipf(1.2, 10)
		if k < 1 || k > 10 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[10] {
		t.Fatalf("Zipf not decreasing: rank1=%d rank10=%d", counts[1], counts[10])
	}
}

// zipfLoop is the per-draw normalisation loop Zipf used before it kept
// its cumulative table: the reference the table must match bit for bit.
func zipfLoop(r *RNG, s float64, n int) int {
	var h float64
	for k := 1; k <= n; k++ {
		h += 1 / math.Pow(float64(k), s)
	}
	u := r.Float64() * h
	var acc float64
	for k := 1; k <= n; k++ {
		acc += 1 / math.Pow(float64(k), s)
		if u <= acc {
			return k
		}
	}
	return n
}

func TestZipfMatchesPerDrawLoop(t *testing.T) {
	// Alternating (s, n) pairs on one stream forces the table to be
	// rebuilt, so a stale table would show.
	params := []struct {
		s float64
		n int
	}{{1.1, 10}, {1.1, 10}, {1.2, 10}, {1.1, 7}, {0, 3}, {2.5, 1}}
	got, want := NewRNG(4242), NewRNG(4242)
	for i := 0; i < 1000; i++ {
		p := params[i%len(params)]
		if i < 500 {
			p = params[0] // the workload generators' only distribution
		}
		if g, w := got.Zipf(p.s, p.n), zipfLoop(want, p.s, p.n); g != w {
			t.Fatalf("draw %d of Zipf(%v, %d) = %d, per-draw loop gives %d", i, p.s, p.n, g, w)
		}
	}
	if got.Uint64() != want.Uint64() {
		t.Fatal("streams diverged: Zipf consumed a different number of words")
	}
}

func TestChoiceWeighted(t *testing.T) {
	r := NewRNG(41)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if !(counts[2] > counts[1] && counts[1] > counts[0]) {
		t.Fatalf("Choice frequencies not ordered: %v", counts)
	}
	// Zero-weight entries must never be chosen.
	for i := 0; i < 1000; i++ {
		if r.Choice([]float64{0, 1, 0}) != 1 {
			t.Fatal("Choice picked a zero-weight entry")
		}
	}
}
