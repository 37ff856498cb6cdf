package platform

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// The three sweeps below are the code the one capacity sweep replaced,
// kept verbatim apart from their names: PeakDemand and Assign already
// grouped events within sweepEps; NewCalendar's own sweep grouped exact
// ties only. They keep their own copy of the tolerance, so a change to
// sweepEps shows as a difference.

func referenceSweepEps(t float64) float64 { return 1e-9 * (1 + math.Abs(t)) }

func referencePeakDemand(intervals []Interval) int {
	type event struct {
		t float64
		d int
	}
	evs := make([]event, 0, 2*len(intervals))
	for _, iv := range intervals {
		if iv.Count == 0 || iv.End <= iv.Start {
			continue
		}
		evs = append(evs, event{iv.Start, iv.Count}, event{iv.End, -iv.Count})
	}
	slices.SortFunc(evs, func(a, b event) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.d, b.d)
	})
	cur, peak := 0, 0
	for i := 0; i < len(evs); {
		groupEnd := i
		eps := referenceSweepEps(evs[i].t)
		for groupEnd < len(evs) && evs[groupEnd].t-evs[i].t <= eps {
			groupEnd++
		}
		for k := i; k < groupEnd; k++ {
			if evs[k].d < 0 {
				cur += evs[k].d
			}
		}
		for k := i; k < groupEnd; k++ {
			if evs[k].d > 0 {
				cur += evs[k].d
				if cur > peak {
					peak = cur
				}
			}
		}
		i = groupEnd
	}
	return peak
}

func referenceAssign(m int, intervals []Interval) ([][]int, error) {
	if m <= 0 {
		return nil, fmt.Errorf("platform: Assign with m = %d", m)
	}
	type event struct {
		t     float64
		start bool
		idx   int
	}
	events := make([]event, 0, 2*len(intervals))
	for i, iv := range intervals {
		if iv.Count < 0 {
			return nil, fmt.Errorf("platform: interval %d has negative count", i)
		}
		if iv.End < iv.Start {
			return nil, fmt.Errorf("platform: interval %d has End < Start", i)
		}
		if iv.Count == 0 || iv.End == iv.Start {
			continue
		}
		events = append(events, event{iv.Start, true, i}, event{iv.End, false, i})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		if events[a].start != events[b].start {
			return !events[a].start
		}
		return events[a].idx < events[b].idx
	})
	free := make(intHeap, m)
	for i := range free {
		free[i] = i
	}
	heap.Init(&free)
	out := make([][]int, len(intervals))
	for i := 0; i < len(events); {
		groupEnd := i
		eps := referenceSweepEps(events[i].t)
		for groupEnd < len(events) && events[groupEnd].t-events[i].t <= eps {
			groupEnd++
		}
		for k := i; k < groupEnd; k++ {
			if !events[k].start {
				for _, p := range out[events[k].idx] {
					heap.Push(&free, p)
				}
			}
		}
		for k := i; k < groupEnd; k++ {
			e := events[k]
			if !e.start {
				continue
			}
			iv := intervals[e.idx]
			if iv.Count > free.Len() {
				return nil, fmt.Errorf("platform: demand exceeds %d processors at t=%v", m, e.t)
			}
			procs := make([]int, iv.Count)
			for q := range procs {
				procs[q] = heap.Pop(&free).(int)
			}
			sort.Ints(procs)
			out[e.idx] = procs
		}
		i = groupEnd
	}
	return out, nil
}

// referenceCalendarFits is NewCalendar's peak check as it stood: exact
// ties, releases before grabs.
func referenceCalendarFits(m int, rs []Reservation) bool {
	type ev struct {
		t float64
		d int
	}
	var evs []ev
	for _, r := range rs {
		evs = append(evs, ev{r.Start, r.Procs}, ev{r.End, -r.Procs})
	}
	sort.Slice(evs, func(i, k int) bool {
		if evs[i].t != evs[k].t {
			return evs[i].t < evs[k].t
		}
		return evs[i].d < evs[k].d
	})
	cur := 0
	for _, e := range evs {
		cur += e.d
		if cur > m {
			return false
		}
	}
	return true
}

// tenth and fifth are variables, so sums of them round at run time as
// a shifted schedule's do; a constant expression like 0.1+0.2 is exact.
var tenth, fifth = 0.1, 0.2

// hairline returns grid time k/10, or a time a float rounding away from
// it: k tenths added up one by one, one ulp either side, or 0.3 more
// added as (t+0.1)+0.2 and as t+(0.1+0.2).
func hairline(k, mode int) float64 {
	t := float64(k) / 10
	switch mode % 6 {
	case 1:
		t = 0
		for range k {
			t += tenth
		}
	case 2:
		t = math.Nextafter(t, math.Inf(1))
	case 3:
		t = math.Nextafter(t, 0)
	case 4:
		t = (t + tenth) + fifth
	case 5:
		t = t + (tenth + fifth)
	}
	return t
}

// nearTie reports whether two distinct interval boundaries lie within
// sweepEps of each other: the only inputs on which the sweep's tie rule
// and exact ties can disagree.
func nearTie(intervals []Interval) bool {
	var ts []float64
	for _, iv := range intervals {
		if iv.Count > 0 && iv.End > iv.Start {
			ts = append(ts, iv.Start, iv.End)
		}
	}
	slices.Sort(ts)
	for i := 1; i < len(ts); i++ {
		if ts[i] != ts[i-1] && ts[i]-ts[i-1] <= referenceSweepEps(ts[i-1]) {
			return true
		}
	}
	return false
}

// decodeIntervals builds m in [1, 6] and at most 12 intervals from
// bytes, three bytes an interval, on hairline times.
func decodeIntervals(data []byte) (int, []Interval) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	m := next()%6 + 1
	ivs := make([]Interval, next()%13)
	for i := range ivs {
		a, b, c := next(), next(), next()
		k := a % 12
		ivs[i] = Interval{Start: hairline(k, a/12), End: hairline(k+b%6, b/6), Count: c % (m + 1)}
	}
	return m, ivs
}

// sameSweep checks the sweep against the references on one input:
// equal peaks; Assign's IDs and error text equal to the old Assign's
// unless an interval is short enough to start and end in one tie group
// (the old Assign leaked its processors; now it gets none); and
// NewCalendar accepting whatever the exact-tie sweep accepted, differing
// from it only on a near tie.
func sameSweep(t *testing.T, m int, ivs []Interval) bool {
	t.Helper()
	peak := PeakDemand(ivs)
	if want := referencePeakDemand(ivs); peak != want {
		t.Errorf("m=%d %v: PeakDemand %d, reference %d", m, ivs, peak, want)
		return false
	}
	got, err := Assign(m, ivs)
	want, werr := referenceAssign(m, ivs)
	short := false
	for _, iv := range ivs {
		short = short || iv.Count > 0 && iv.End > iv.Start && iv.End-iv.Start <= referenceSweepEps(iv.End)
	}
	if !short && (fmt.Sprint(err) != fmt.Sprint(werr) || !slices.EqualFunc(got, want, slices.Equal)) {
		t.Errorf("m=%d %v: Assign %v (%v), reference %v (%v)", m, ivs, got, err, want, werr)
		return false
	}
	if err == nil && peak > m || err != nil && peak <= m && !slices.ContainsFunc(ivs, func(iv Interval) bool { return iv.End < iv.Start }) {
		t.Errorf("m=%d %v: Assign error %v with peak %d", m, ivs, err, peak)
		return false
	}
	for i := range got {
		for k := i + 1; k < len(got); k++ {
			a, b := ivs[i], ivs[k]
			if a.Start < b.End-referenceSweepEps(b.End) && b.Start < a.End-referenceSweepEps(a.End) {
				for _, p := range got[i] {
					if slices.Contains(got[k], p) {
						t.Errorf("m=%d %v: overlapping intervals %d and %d share processor %d", m, ivs, i, k, p)
						return false
					}
				}
			}
		}
	}
	var rs []Reservation
	var held []Interval
	for i, iv := range ivs {
		if iv.Count > 0 && iv.End > iv.Start {
			rs = append(rs, Reservation{Name: fmt.Sprint(i), Start: iv.Start, End: iv.End, Procs: iv.Count})
			held = append(held, iv)
		}
	}
	_, cerr := NewCalendar(m, rs)
	ok, refOK := cerr == nil, referenceCalendarFits(m, rs)
	if refOK && !ok || ok != refOK && !nearTie(held) {
		t.Errorf("m=%d %v: NewCalendar error %v, exact sweep accepts: %v", m, rs, cerr, refOK)
		return false
	}
	return true
}

// motivationCases are the hairline inputs on which the old sweeps
// disagreed: [0, 0.1+0.2) and [0.3, 1.3) on one processor.
var motivationCases = [][]Interval{
	{{Start: 0, End: tenth + fifth, Count: 1}, {Start: 0.3, End: 1.3, Count: 1}},
	{{Start: 0, End: tenth + fifth, Count: 1}, {Start: 0.3, End: 1, Count: 1}},
}

// TestSweepMatchesReference: the one sweep against the sweeps it
// replaced, on the motivating hairline inputs and on random ones built
// like FuzzCapacitySweep's. `-quickchecks N` scales the budget (10 inputs
// per check).
func TestSweepMatchesReference(t *testing.T) {
	for _, ivs := range motivationCases {
		if !sameSweep(t, 1, ivs) {
			t.FailNow()
		}
		if PeakDemand(ivs) != 1 {
			t.Fatalf("%v: hairline intervals overlap under the tie rule", ivs)
		}
		rs := []Reservation{
			{Name: "a", Start: ivs[0].Start, End: ivs[0].End, Procs: 1},
			{Name: "b", Start: ivs[1].Start, End: ivs[1].End, Procs: 1},
		}
		if _, err := NewCalendar(1, rs); err != nil || referenceCalendarFits(1, rs) {
			t.Fatalf("%v: calendar error %v; the exact-tie sweep must refuse it", ivs, err)
		}
	}
	f := func(data []byte) bool {
		m, ivs := decodeIntervals(data)
		return sameSweep(t, m, ivs)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 10}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCapacitySweep: the one sweep against the sweeps it replaced, on at
// most 12 intervals with hairline boundaries, m from 1 to 6.
func FuzzCapacitySweep(f *testing.F) {
	f.Add([]byte{0, 2, 0, 9, 1, 3, 5, 1})                                     // [0, 0.1+0.1+0.1) and [0.3, 0.8)
	f.Add([]byte{1, 3, 0, 5, 2, 3, 11, 1, 27, 2, 1})                          // hairline ulps on m = 2
	f.Add([]byte{5, 6, 0, 1, 1, 1, 1, 1, 2, 1, 1, 3, 1, 1, 4, 1, 1, 5, 1, 1}) // back-to-back tenths on m = 6
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ivs := decodeIntervals(data)
		sameSweep(t, m, ivs)
	})
}

// visitRec is one event a sweep visits: interval i's start or end.
type visitRec struct {
	i     int
	start bool
}

// fullOrderVisits is the order the sweep visited events in when it
// sorted them on all three keys — time, ends before starts, index — and
// then applied each tie group's ends before its starts.
func fullOrderVisits(intervals []Interval) []visitRec {
	type ev struct {
		t     float64
		i     int
		start bool
	}
	var evs []ev
	for i, iv := range intervals {
		if iv.Count > 0 && iv.End > iv.Start {
			evs = append(evs, ev{iv.Start, i, true}, ev{iv.End, i, false})
		}
	}
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.t != y.t {
			return x.t < y.t
		}
		if x.start != y.start {
			return !x.start
		}
		return x.i < y.i
	})
	var out []visitRec
	for g := 0; g < len(evs); {
		end := g + 1
		for end < len(evs) && evs[end].t-evs[g].t <= referenceSweepEps(evs[g].t) {
			end++
		}
		for _, start := range [2]bool{false, true} {
			for _, e := range evs[g:end] {
				if e.start == start {
					out = append(out, visitRec{e.i, e.start})
				}
			}
		}
		g = end
	}
	return out
}

// TestSweepVisitsInFullOrder: sorting events on time alone and ordering
// each tie group afterwards visits them exactly as the three-key sort
// did, which is what Assign's processor IDs depend on. Inputs are up to
// five of FuzzCapacitySweep's joined, so that a sort of more than twelve
// events meets equal times (pdqsort leaves those in any order), and the
// peak-only sweep reads the same peak.
func TestSweepVisitsInFullOrder(t *testing.T) {
	var shuffled int
	f := func(data []byte, parts uint8) bool {
		var ivs []Interval
		for range parts%5 + 1 {
			_, more := decodeIntervals(data)
			ivs = append(ivs, more...)
			data = data[min(len(data), 2+3*len(more)):]
		}
		d := demandOf(ivs)
		var got []visitRec
		peak, _ := sweep(slices.Clone(d.evs), func(i int, start bool) error {
			got = append(got, visitRec{i, start})
			return nil
		})
		want := fullOrderVisits(ivs)
		if !slices.Equal(got, want) {
			t.Errorf("%v: visits %v, three-key order %v", ivs, got, want)
			return false
		}
		if p := d.Peak(); p != peak {
			t.Errorf("%v: peak %d without visits, %d with", ivs, p, peak)
			return false
		}
		if len(got) > 12 {
			shuffled++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 10}); err != nil {
		t.Fatal(err)
	}
	if shuffled == 0 {
		t.Fatal("no input had more than twelve events")
	}
}
