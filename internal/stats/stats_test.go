package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
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

func TestSplitIndependence(t *testing.T) {
	a := NewRNG(7)
	sub := a.Split()
	// Continuing the parent must not mirror the child.
	if a.Uint64() == sub.Uint64() {
		t.Fatal("split stream mirrors parent")
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

func TestWeibullShape1IsExponential(t *testing.T) {
	r := NewRNG(23)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Weibull(1, 3)
	}
	mean := sum / n
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("Weibull(1,3) mean = %v, want ~3", mean)
	}
}

func TestBoundedParetoRange(t *testing.T) {
	r := NewRNG(29)
	for i := 0; i < 10000; i++ {
		x := r.BoundedPareto(1.5, 10, 1000)
		if x < 10-1e-9 || x > 1000+1e-9 {
			t.Fatalf("BoundedPareto out of range: %v", x)
		}
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

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(37)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm invalid at value %d", v)
		}
		seen[v] = true
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

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("Mean = %v", s.Mean)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	// Sample std of this classic dataset is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Fatalf("Std = %v, want %v", s.Std, want)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestGeoMean(t *testing.T) {
	s := Summarize([]float64{1, 100})
	if math.Abs(s.GeoMean()-10) > 1e-9 {
		t.Fatalf("GeoMean = %v, want 10", s.GeoMean())
	}
	s2 := Summarize([]float64{0, 5})
	if s2.GeoMean() != 0 {
		t.Fatalf("GeoMean with zero sample = %v, want 0", s2.GeoMean())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 9.99, 10, 50} {
		h.Add(x)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Fatalf("under/over = %d/%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 { // 0 and 1.9
		t.Fatalf("bin0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 { // 2
		t.Fatalf("bin1 = %d", h.Counts[1])
	}
	if h.Counts[4] != 1 { // 9.99
		t.Fatalf("bin4 = %d", h.Counts[4])
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d", h.Total())
	}
}

func TestMeanCI(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 5
	}
	mean, hw := MeanCI(xs)
	if mean != 5 || hw != 0 {
		t.Fatalf("constant-sample CI = %v ± %v", mean, hw)
	}
}

// Property: quantiles are monotone in q for any sample.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		return Quantile(xs, qa) <= Quantile(xs, qb)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Perm always returns a valid permutation.
func TestPermProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: summary bounds bracket the mean and quantiles.
func TestSummaryBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		eps := 1e-9 * (1 + math.Abs(s.Max))
		return s.Min <= s.Mean+eps && s.Mean <= s.Max+eps &&
			s.Min <= s.P50+eps && s.P50 <= s.Max+eps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
