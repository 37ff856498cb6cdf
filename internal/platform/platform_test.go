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
		if got := cal.Available(c.t); got != c.want {
			t.Errorf("Available(%v) = %d, want %d", c.t, got, c.want)
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

func TestNextBoundary(t *testing.T) {
	cal, _ := NewCalendar(10, []Reservation{
		{Name: "r", Start: 100, End: 200, Procs: 1},
	})
	if b, ok := cal.NextBoundary(0); !ok || b != 100 {
		t.Fatalf("NextBoundary(0) = %v,%v", b, ok)
	}
	if b, ok := cal.NextBoundary(100); !ok || b != 200 {
		t.Fatalf("NextBoundary(100) = %v,%v", b, ok)
	}
	if _, ok := cal.NextBoundary(200); ok {
		t.Fatal("NextBoundary past all reservations should report none")
	}
}

func TestMinAvailable(t *testing.T) {
	cal, _ := NewCalendar(10, []Reservation{
		{Name: "r", Start: 100, End: 200, Procs: 4},
	})
	if got := cal.MinAvailable(0, 50); got != 10 {
		t.Fatalf("MinAvailable before reservation = %d", got)
	}
	if got := cal.MinAvailable(0, 150); got != 6 {
		t.Fatalf("MinAvailable spanning start = %d", got)
	}
	if got := cal.MinAvailable(150, 250); got != 6 {
		t.Fatalf("MinAvailable inside = %d", got)
	}
	if got := cal.MinAvailable(200, 300); got != 10 {
		t.Fatalf("MinAvailable after = %d", got)
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

// Property: calendar availability is always within [0, m].
func TestCalendarProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(1, 32)
		var rs []Reservation
		for i := 0; i < rng.Intn(5); i++ {
			s := rng.Range(0, 100)
			rs = append(rs, Reservation{
				Name:  "r",
				Start: s,
				End:   s + rng.Range(1, 50),
				Procs: rng.IntRange(1, m),
			})
		}
		cal, err := NewCalendar(m, rs)
		if err != nil {
			return true // overcommitted draw; rejection is correct
		}
		for t := 0.0; t < 160; t += 7.3 {
			a := cal.Available(t)
			if a < 0 || a > m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCalendarReservationsCopy(t *testing.T) {
	cal, _ := NewCalendar(4, []Reservation{{Name: "r", Start: 1, End: 2, Procs: 1}})
	rs := cal.Reservations()
	rs[0].Procs = 99
	if cal.Reserved(1.5) != 1 {
		t.Fatal("Reservations() exposed internal state")
	}
}

func TestMinAvailableUnbounded(t *testing.T) {
	cal, _ := NewCalendar(8, nil)
	if got := cal.MinAvailable(0, math.Inf(1)); got != 8 {
		t.Fatalf("empty calendar MinAvailable = %d", got)
	}
}
