package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/workload"
)

// referenceCalendar holds private copies of the four calendar queries
// the old calendar check asked, as they stood on platform.Calendar.
type referenceCalendar struct {
	m            int
	reservations []platform.Reservation
}

func (c referenceCalendar) reserved(t float64) int {
	var n int
	for _, r := range c.reservations {
		if r.Start <= t && t < r.End {
			n += r.Procs
		}
	}
	return n
}

func (c referenceCalendar) available(t float64) int { return c.m - c.reserved(t) }

func (c referenceCalendar) nextBoundary(t float64) (boundary float64, ok bool) {
	best := 0.0
	found := false
	for _, r := range c.reservations {
		for _, b := range [2]float64{r.Start, r.End} {
			if b > t && (!found || b < best) {
				best = b
				found = true
			}
		}
	}
	return best, found
}

func (c referenceCalendar) minAvailable(t0, t1 float64) int {
	minAvail := c.available(t0)
	t := t0
	for {
		b, ok := c.nextBoundary(t)
		if !ok || b >= t1 {
			return minAvail
		}
		if a := c.available(b); a < minAvail {
			minAvail = a
		}
		t = b
	}
}

// referenceValidateCalendar is ValidateWith's calendar check as it
// stood: exact ties, releases first, the calendar queried per event.
func referenceValidateCalendar(s *Schedule, calendar *platform.Calendar) error {
	cal := referenceCalendar{calendar.M(), calendar.Reservations()}
	type ev struct {
		t float64
		d int
	}
	var evs []ev
	for _, a := range s.Allocs {
		evs = append(evs, ev{a.Start, a.Procs}, ev{a.End(), -a.Procs})
	}
	sort.Slice(evs, func(i, k int) bool {
		if evs[i].t != evs[k].t {
			return evs[i].t < evs[k].t
		}
		return evs[i].d < evs[k].d
	})
	cur := 0
	for i, e := range evs {
		cur += e.d
		end := math.Inf(1)
		if i+1 < len(evs) {
			end = evs[i+1].t
		}
		if cur > 0 && cal.minAvailable(e.t, end) < cur {
			return fmt.Errorf("sched: demand %d exceeds reservation-free capacity after t=%v", cur, e.t)
		}
	}
	return nil
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

// rigidFor is a rigid job on p processors that runs for d.
func rigidFor(id int, d float64, p int) *workload.Job {
	times := make([]float64, p)
	for i := range times {
		times[i] = d
	}
	return &workload.Job{ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1,
		SeqTime: d, MinProcs: p, MaxProcs: p, Times: times}
}

// decodeCalendarCase builds, from bytes, a schedule on M in [1, 6] and
// a calendar: at most 12 items of three bytes, each a rigid job or a
// reservation over hairline times. It returns nil when NewCalendar
// refuses the reservations.
func decodeCalendarCase(data []byte) (*Schedule, *platform.Calendar) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	s := New(next()%6 + 1)
	var rs []platform.Reservation
	for i := range next() % 13 {
		a, b, c := next(), next(), next()
		k := a / 2 % 12
		start, end, procs := hairline(k, b/6), hairline(k+b%6, c), c/6%s.M+1
		if a%2 == 0 {
			rs = append(rs, platform.Reservation{Name: fmt.Sprint(i), Start: start, End: end, Procs: procs})
			continue
		}
		d := end - start
		if !(d > 0) {
			d = 0.1
		}
		s.Add(Alloc{Job: rigidFor(i, d, procs), Start: start, Procs: procs})
	}
	cal, err := platform.NewCalendar(s.M, rs)
	if err != nil {
		return nil, nil
	}
	return s, cal
}

// nearTie reports whether two distinct boundaries of the allocations and
// reservations lie within platform.PeakDemand's tie tolerance,
// 1e-9·(1+|t|), of each other.
func nearTie(s *Schedule, cal *platform.Calendar) bool {
	var ts []float64
	for _, a := range s.Allocs {
		ts = append(ts, a.Start, a.End())
	}
	for _, r := range cal.Reservations() {
		ts = append(ts, r.Start, r.End)
	}
	slices.Sort(ts)
	for i := 1; i < len(ts); i++ {
		if ts[i] != ts[i-1] && ts[i]-ts[i-1] <= 1e-9*(1+math.Abs(ts[i-1])) {
			return true
		}
	}
	return false
}

// pointwiseFits counts the demand of the allocations and reservations at
// every start, half-open and with exact ties: the truth both calendar
// checks approximate.
func pointwiseFits(s *Schedule, cal *platform.Calendar) bool {
	held := s.intervals()
	for _, r := range cal.Reservations() {
		held = append(held, platform.Interval{Start: r.Start, End: r.End, Count: r.Procs})
	}
	for _, probe := range held {
		sum := 0
		for _, iv := range held {
			if iv.Start <= probe.Start && probe.Start < iv.End {
				sum += iv.Count
			}
		}
		if sum > s.M {
			return false
		}
	}
	return true
}

// sameCalendarCheck: ValidateWith around a calendar accepts every
// schedule the old capacity and calendar checks accepted, and agrees with
// the pointwise count except on a near tie. (The old check also refused
// schedules the pointwise count accepts: it judged each of several ends
// at one instant alone, against a reservation starting there.)
func sameCalendarCheck(t *testing.T, s *Schedule, cal *platform.Calendar) bool {
	t.Helper()
	err := s.ValidateWith(ValidateOptions{Calendar: cal})
	werr := s.Validate()
	if werr == nil {
		werr = referenceValidateCalendar(s, cal)
	}
	if werr == nil && err != nil || (err == nil) != pointwiseFits(s, cal) && !nearTie(s, cal) {
		t.Errorf("M=%d %+v around %+v: %v, reference %v, pointwise fit %v",
			s.M, s.Allocs, cal.Reservations(), err, werr, pointwiseFits(s, cal))
		return false
	}
	return true
}

// TestSweepMatchesReference: the calendar check as one more capacity
// check against the calendar sweep it replaced, on random inputs built
// like FuzzCapacitySweep's. `-quickchecks N` scales the budget (10
// inputs per check).
func TestSweepMatchesReference(t *testing.T) {
	f := func(data []byte) bool {
		s, cal := decodeCalendarCase(data)
		return s == nil || sameCalendarCheck(t, s, cal)
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 10}); err != nil {
		t.Fatal(err)
	}
}

// FuzzCapacitySweep: ValidateWith around a calendar against the old
// calendar check, on at most 12 jobs and reservations with hairline
// boundaries, M from 1 to 6.
func FuzzCapacitySweep(f *testing.F) {
	f.Add([]byte{0, 2, 1, 3, 1, 7, 5, 0})          // jobs [0, 0.1+0.1+0.1) and [0.3, 0.8) on M = 1
	f.Add([]byte{1, 3, 1, 3, 1, 7, 5, 0, 0, 5, 0}) // the same around a 1-processor reservation on M = 2
	f.Add([]byte{0, 2, 1, 3, 1, 6, 5, 0})          // a job up to 0.1+0.1+0.1, a reservation from 0.3
	f.Add([]byte{1, 2, 1, 5, 8, 10, 3, 6})         // a job up to one ulp past 0.5, a reservation from 0.5
	f.Add([]byte("27B10A07A0"))                    // two jobs end together where a reservation starts
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, cal := decodeCalendarCase(data); s != nil {
			sameCalendarCheck(t, s, cal)
		}
	})
}
