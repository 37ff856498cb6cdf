package platform

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestClusterProcs(t *testing.T) {
	c := &Cluster{Name: "x", Nodes: 48, ProcsPerNode: 2, Speed: 1}
	if c.Procs() != 96 {
		t.Fatalf("Procs = %d", c.Procs())
	}
}

func TestClusterValidate(t *testing.T) {
	bad := []*Cluster{
		{Name: "a", Nodes: 0, ProcsPerNode: 1, Speed: 1},
		{Name: "b", Nodes: 1, ProcsPerNode: 0, Speed: 1},
		{Name: "c", Nodes: 1, ProcsPerNode: 1, Speed: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("cluster %q accepted", c.Name)
		}
	}
}

func TestCIMENTMatchesFigure3(t *testing.T) {
	g := CIMENT()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Clusters) != 4 {
		t.Fatalf("CIMENT has %d clusters, want 4", len(g.Clusters))
	}
	nodes := map[string]int{}
	for _, c := range g.Clusters {
		nodes[c.Name] = c.Nodes
		if c.ProcsPerNode != 2 {
			t.Errorf("cluster %s is not bi-processor", c.Name)
		}
	}
	want := map[string]int{"itanium": 104, "xeon": 48, "athlon-a": 40, "athlon-b": 24}
	for k, v := range want {
		if nodes[k] != v {
			t.Errorf("cluster %s: %d nodes, want %d", k, nodes[k], v)
		}
	}
	// 216 bi-processor nodes = 432 processors.
	if g.TotalProcs() != 432 {
		t.Fatalf("TotalProcs = %d, want 432", g.TotalProcs())
	}
}

func TestGridValidateDuplicate(t *testing.T) {
	g := &Grid{Clusters: []*Cluster{
		{Name: "a", Nodes: 1, ProcsPerNode: 1, Speed: 1},
		{Name: "a", Nodes: 1, ProcsPerNode: 1, Speed: 1},
	}}
	if err := g.Validate(); err == nil {
		t.Fatal("duplicate cluster names accepted")
	}
}

func TestReservationValidate(t *testing.T) {
	bad := []Reservation{
		{Name: "empty", Start: 5, End: 5, Procs: 1},
		{Name: "neg", Start: -1, End: 5, Procs: 1},
		{Name: "zero", Start: 0, End: 5, Procs: 0},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("reservation %q accepted", r.Name)
		}
	}
}

// freeFor returns how many processors stay free of the calendar's
// reservations over all of [t0, t1): the largest k that PeakDemand lets
// an interval of k processors there hold beside them.
func freeFor(cal *Calendar, t0, t1 float64) int {
	var held []Interval
	for _, r := range cal.Reservations() {
		held = append(held, Interval{Start: r.Start, End: r.End, Count: r.Procs})
	}
	k := 0
	for k < cal.M() && PeakDemand(append(held, Interval{Start: t0, End: t1, Count: k + 1})) <= cal.M() {
		k++
	}
	return k
}

// TestCalendarAvailability: reservations hold processors over half-open
// windows, so a probe at a window's start sees them and one at its end
// does not.
func TestCalendarAvailability(t *testing.T) {
	cal, err := NewCalendar(10, []Reservation{
		{Name: "demo", Start: 100, End: 200, Procs: 4},
		{Name: "exp", Start: 150, End: 300, Procs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    float64
		want int
	}{
		{0, 10}, {99, 10}, {100, 6}, {149, 6}, {150, 3},
		{199, 3}, {200, 7}, {299, 7}, {300, 10},
	}
	for _, c := range cases {
		if got := freeFor(cal, c.t, c.t+0.5); got != c.want {
			t.Errorf("free at %v = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestCalendarOverflow(t *testing.T) {
	_, err := NewCalendar(5, []Reservation{
		{Name: "a", Start: 0, End: 10, Procs: 3},
		{Name: "b", Start: 5, End: 15, Procs: 3},
	})
	if err == nil {
		t.Fatal("overlapping reservations exceeding m accepted")
	}
	// Back-to-back is fine.
	if _, err := NewCalendar(5, []Reservation{
		{Name: "a", Start: 0, End: 10, Procs: 3},
		{Name: "b", Start: 10, End: 15, Procs: 3},
	}); err != nil {
		t.Fatalf("back-to-back reservations rejected: %v", err)
	}
}

// TestMinAvailable: a window's free processors are its tightest instant's.
func TestMinAvailable(t *testing.T) {
	cal, _ := NewCalendar(10, []Reservation{
		{Name: "r", Start: 100, End: 200, Procs: 4},
	})
	for _, c := range []struct {
		t0, t1 float64
		want   int
	}{
		{0, 50, 10}, {0, 100, 10}, {0, 150, 6}, {150, 250, 6}, {200, 300, 10},
	} {
		if got := freeFor(cal, c.t0, c.t1); got != c.want {
			t.Errorf("free over [%v,%v) = %d, want %d", c.t0, c.t1, got, c.want)
		}
	}
}

func TestAssignBasic(t *testing.T) {
	got, err := Assign(4, []Interval{
		{Start: 0, End: 10, Count: 2},
		{Start: 0, End: 5, Count: 2},
		{Start: 5, End: 10, Count: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 2 || len(got[1]) != 2 || len(got[2]) != 2 {
		t.Fatalf("wrong processor counts: %v", got)
	}
	// Interval 0 and 1 overlap: disjoint processors required.
	inUse := map[int]bool{}
	for _, p := range got[0] {
		inUse[p] = true
	}
	for _, p := range got[1] {
		if inUse[p] {
			t.Fatalf("intervals 0 and 1 share processor %d", p)
		}
	}
}

func TestAssignHalfOpenReuse(t *testing.T) {
	got, err := Assign(1, []Interval{
		{Start: 0, End: 5, Count: 1},
		{Start: 5, End: 10, Count: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0] != 0 || got[1][0] != 0 {
		t.Fatalf("back-to-back intervals should reuse proc 0: %v", got)
	}
}

func TestAssignOverflow(t *testing.T) {
	_, err := Assign(3, []Interval{
		{Start: 0, End: 10, Count: 2},
		{Start: 5, End: 15, Count: 2},
	})
	if err == nil {
		t.Fatal("overcommitted intervals accepted")
	}
}

func TestAssignZeroWidth(t *testing.T) {
	got, err := Assign(2, []Interval{
		{Start: 5, End: 5, Count: 2},
		{Start: 0, End: 1, Count: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 0 || len(got[1]) != 0 {
		t.Fatalf("zero-width/zero-count intervals received processors: %v", got)
	}
}

// TestAssignInsideOneTieGroup: an interval that starts and ends within
// one tie group holds nothing, so it leaks no processor a later start
// needs, and Assign fails only where PeakDemand exceeds m.
func TestAssignInsideOneTieGroup(t *testing.T) {
	ivs := []Interval{{Start: 0, End: 1e-12, Count: 1}, {Start: 1, End: 2, Count: 1}}
	got, err := Assign(1, ivs)
	if err != nil || PeakDemand(ivs) != 1 {
		t.Fatalf("Assign = %v, %v with peak %d", got, err, PeakDemand(ivs))
	}
	if len(got[0]) != 0 || len(got[1]) != 1 {
		t.Fatalf("processors %v", got)
	}
}

func TestPeakDemand(t *testing.T) {
	peak := PeakDemand([]Interval{
		{Start: 0, End: 10, Count: 2},
		{Start: 5, End: 15, Count: 3},
		{Start: 20, End: 30, Count: 4},
	})
	if peak != 5 {
		t.Fatalf("PeakDemand = %d, want 5", peak)
	}
	if PeakDemand(nil) != 0 {
		t.Fatal("empty PeakDemand != 0")
	}
}

// TestPeakDemandUnbounded: an interval that never ends is one group of
// its own at +Inf, where t - t is NaN; the sweep still moves on.
func TestPeakDemandUnbounded(t *testing.T) {
	if got := PeakDemand([]Interval{{Start: 0, End: math.Inf(1), Count: 2}, {Start: 1, End: 2, Count: 1}}); got != 3 {
		t.Fatalf("PeakDemand = %d, want 3", got)
	}
}

// Property: Assign never double-books a processor and always respects
// demand counts, for random feasible interval sets.
func TestAssignProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := stats.NewRNG(seed)
		n := int(nRaw%20) + 1
		m := rng.IntRange(1, 16)
		intervals := make([]Interval, n)
		for i := range intervals {
			s := rng.Range(0, 100)
			intervals[i] = Interval{
				Start: s,
				End:   s + rng.Range(0.1, 50),
				Count: rng.IntRange(0, m),
			}
		}
		assigned, err := Assign(m, intervals)
		if err != nil {
			// Must genuinely exceed capacity.
			return PeakDemand(intervals) > m
		}
		if PeakDemand(intervals) > m {
			return false // should have failed
		}
		// Verify counts and non-overlap pairwise.
		for i, iv := range intervals {
			if iv.Count > 0 && iv.End > iv.Start && len(assigned[i]) != iv.Count {
				return false
			}
		}
		for i := range intervals {
			for k := i + 1; k < len(intervals); k++ {
				a, b := intervals[i], intervals[k]
				if a.Start < b.End && b.Start < a.End {
					used := map[int]bool{}
					for _, p := range assigned[i] {
						used[p] = true
					}
					for _, p := range assigned[k] {
						if used[p] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCalendarReservationsCopy(t *testing.T) {
	cal, _ := NewCalendar(4, []Reservation{{Name: "r", Start: 1, End: 2, Procs: 1}})
	rs := cal.Reservations()
	rs[0].Procs = 99
	if got := cal.Reservations()[0].Procs; got != 1 {
		t.Fatalf("Reservations() exposed internal state: procs %d after editing the copy", got)
	}
}
