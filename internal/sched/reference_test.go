package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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

// referenceValidateWith is ValidateWith as it stood before it fed the
// sweep straight from the allocations: a map of the job IDs seen, then
// the allocations and reservations as intervals.
func referenceValidateWith(s *Schedule, opt ValidateOptions) error {
	if s.M <= 0 {
		return fmt.Errorf("sched: schedule on %d processors", s.M)
	}
	seen := make(map[int]bool, len(s.Allocs))
	const eps = 1e-9
	for i, a := range s.Allocs {
		j := a.Job
		if j == nil {
			return fmt.Errorf("sched: allocation %d has nil job", i)
		}
		if seen[j.ID] {
			return fmt.Errorf("sched: job %d scheduled twice", j.ID)
		}
		seen[j.ID] = true
		if !j.CanRunOn(a.Procs) {
			return fmt.Errorf("sched: job %d on %d procs outside [%d,%d]",
				j.ID, a.Procs, j.MinProcs, j.MaxProcs)
		}
		if a.Procs > s.M {
			return fmt.Errorf("sched: job %d on %d procs exceeds platform %d", j.ID, a.Procs, s.M)
		}
		if j.Kind == workload.Rigid && a.Procs != j.MinProcs {
			return fmt.Errorf("sched: rigid job %d on %d procs, requested %d", j.ID, a.Procs, j.MinProcs)
		}
		if !opt.IgnoreReleases && a.Start < j.Release-eps {
			return fmt.Errorf("sched: job %d starts at %v before release %v", j.ID, a.Start, j.Release)
		}
		if a.Start < 0 {
			return fmt.Errorf("sched: job %d starts at negative time %v", j.ID, a.Start)
		}
	}
	intervals := s.intervals()
	if cal := opt.Calendar; cal != nil {
		if cal.M() != s.M {
			return fmt.Errorf("sched: calendar of %d processors for a schedule on %d", cal.M(), s.M)
		}
		for _, r := range cal.Reservations() {
			intervals = append(intervals, platform.Interval{Start: r.Start, End: r.End, Count: r.Procs})
		}
	}
	if peak := platform.PeakDemand(intervals); peak > s.M {
		return fmt.Errorf("sched: peak demand %d exceeds %d processors", peak, s.M)
	}
	return nil
}

// decodeViolations builds a schedule of up to 12 allocations from bytes,
// each drawn to break one rule now and then: a nil job, a repeated ID
// (dense IDs, or sparse ones up to the int range's ends), a count outside
// the job's range or wider than M, a rigid job off its request (its
// range may be wider than the request), a start
// before its release or below zero, and demand above M; plus, at times,
// a calendar, of the schedule's width or another.
func decodeViolations(data []byte) (*Schedule, ValidateOptions) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	m := next()%6 + 1
	s := New(m)
	sparse := next()%2 == 1
	n := next() % 13
	var jobs []*workload.Job
	for len(s.Allocs) < n && len(data) > 0 {
		if next()%16 == 0 {
			s.Add(Alloc{Start: float64(next() % 5)})
			continue
		}
		var j *workload.Job
		if len(jobs) > 0 && next()%5 == 0 {
			j = jobs[next()%len(jobs)] // the same job again
		} else {
			id := len(jobs)
			switch {
			case sparse && next()%2 == 0:
				id = []int{math.MinInt, math.MaxInt, -7, 1 << 40, 1<<40 + 63}[next()%5]
			case sparse:
				id = next() * 1000003
			case len(jobs) > 0 && next()%6 == 0:
				id = jobs[next()%len(jobs)].ID // another job with a taken ID
			}
			lo := next()%m + 1
			j = &workload.Job{
				ID: id, Kind: workload.Moldable, Weight: 1, DueDate: -1,
				Release: float64(next() % 4), SeqTime: float64(next()%5 + 1),
				MinProcs: lo, MaxProcs: lo + next()%3, Model: workload.Linear{},
			}
			if next()%4 == 0 {
				j.Kind = workload.Rigid // a range wider than the request lets it run off it
			}
			jobs = append(jobs, j)
		}
		procs := j.MinProcs + next()%(j.MaxProcs-j.MinProcs+1)
		if next()%8 == 0 {
			procs = next() % (m + 3)
		}
		start := j.Release + float64(next()%6)
		if next()%8 == 0 {
			start = float64(next()%6) - 2
		}
		s.Add(Alloc{Job: j, Start: start, Procs: procs})
	}
	opt := ValidateOptions{IgnoreReleases: next()%3 == 0}
	if next()%3 == 0 {
		width := m
		if next()%3 == 0 {
			width = m + 1
		}
		cal, err := platform.NewCalendar(width, []platform.Reservation{
			{Name: "r", Start: float64(next() % 4), End: float64(next()%4 + 4), Procs: 1},
		})
		if err == nil {
			opt.Calendar = cal
		}
	}
	return s, opt
}

// TestValidateMatchesReference: ValidateWith returns the old check's
// error, text and all, or none where it returned none, on schedules that
// break each rule; every kind of verdict occurs.
func TestValidateMatchesReference(t *testing.T) {
	verdicts := map[string]int{}
	f := func(data []byte) bool {
		s, opt := decodeViolations(data)
		got, want := s.ValidateWith(opt), referenceValidateWith(s, opt)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("ValidateWith: %v, reference %v", got, want)
			return false
		}
		verdict := "valid"
		if want != nil {
			verdict = strings.Fields(strings.TrimPrefix(want.Error(), "sched: "))[0]
			for _, w := range []string{"twice", "outside", "exceeds platform", "rigid", "before release", "negative", "peak", "calendar"} {
				if strings.Contains(want.Error(), w) {
					verdict = w
				}
			}
		}
		verdicts[verdict]++
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 50}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"valid", "allocation", "twice", "outside", "exceeds platform", "rigid", "before release", "negative", "peak", "calendar"} {
		if verdicts[v] == 0 {
			t.Errorf("no schedule drew the %q verdict: %v", v, verdicts)
		}
	}
	t.Logf("verdicts: %v", verdicts)
}
