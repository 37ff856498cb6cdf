package sched

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

func mold(id int, seq float64, maxP int) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Moldable, Weight: 1, DueDate: -1,
		SeqTime: seq, MinProcs: 1, MaxProcs: maxP, Model: workload.Linear{},
	}
}

func rigid(id int, seq float64, p int) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1,
		SeqTime: seq, MinProcs: p, MaxProcs: p, Model: workload.Linear{},
	}
}

func TestValidSchedule(t *testing.T) {
	s := New(4)
	s.Add(Alloc{Job: mold(1, 8, 4), Start: 0, Procs: 2}) // ends at 4
	s.Add(Alloc{Job: mold(2, 4, 4), Start: 0, Procs: 2}) // ends at 2
	s.Add(Alloc{Job: mold(3, 8, 4), Start: 2, Procs: 2}) // ends at 6
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(); got != 6 {
		t.Fatalf("Makespan = %v", got)
	}
}

func TestValidateCapacity(t *testing.T) {
	s := New(3)
	s.Add(Alloc{Job: mold(1, 8, 3), Start: 0, Procs: 2})
	s.Add(Alloc{Job: mold(2, 8, 3), Start: 1, Procs: 2})
	if err := s.Validate(); err == nil {
		t.Fatal("overcommitted schedule accepted")
	}
}

func TestValidateRelease(t *testing.T) {
	j := mold(1, 4, 2)
	j.Release = 10
	s := New(2)
	s.Add(Alloc{Job: j, Start: 5, Procs: 1})
	if err := s.Validate(); err == nil {
		t.Fatal("pre-release start accepted")
	}
	if err := s.ValidateWith(ValidateOptions{IgnoreReleases: true}); err != nil {
		t.Fatalf("IgnoreReleases failed: %v", err)
	}
}

func TestValidateRigid(t *testing.T) {
	s := New(4)
	s.Add(Alloc{Job: rigid(1, 8, 2), Start: 0, Procs: 3})
	if err := s.Validate(); err == nil {
		t.Fatal("rigid job with wrong allocation accepted")
	}
}

func TestValidateDoubleSchedule(t *testing.T) {
	j := mold(1, 4, 2)
	s := New(4)
	s.Add(Alloc{Job: j, Start: 0, Procs: 1})
	s.Add(Alloc{Job: j, Start: 10, Procs: 1})
	if err := s.Validate(); err == nil {
		t.Fatal("job scheduled twice accepted")
	}
}

func TestValidateProcsOutOfRange(t *testing.T) {
	s := New(8)
	j := mold(1, 4, 2)
	s.Add(Alloc{Job: j, Start: 0, Procs: 3})
	if err := s.Validate(); err == nil {
		t.Fatal("allocation above MaxProcs accepted")
	}
}

func TestValidateWithCalendar(t *testing.T) {
	cal, err := platform.NewCalendar(4, []platform.Reservation{
		{Name: "res", Start: 5, End: 15, Procs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 procs from t=0..10 collides with only 1 free during [5,10).
	s := New(4)
	s.Add(Alloc{Job: mold(1, 20, 4), Start: 0, Procs: 2})
	if err := s.ValidateWith(ValidateOptions{Calendar: cal}); err == nil {
		t.Fatal("reservation conflict accepted")
	}
	// 1 proc is fine.
	s2 := New(4)
	s2.Add(Alloc{Job: mold(1, 10, 4), Start: 0, Procs: 1})
	if err := s2.ValidateWith(ValidateOptions{Calendar: cal}); err != nil {
		t.Fatalf("feasible schedule rejected: %v", err)
	}
}

// TestValidateAroundReservations: reservations hold processors over
// half-open windows, counted as demand under the capacity sweep's tie
// rule. The old calendar check refused the last three rows: two by exact
// ties on hairline boundaries, one by judging each of two ends at the
// reservation's start alone.
func TestValidateAroundReservations(t *testing.T) {
	for _, c := range []struct {
		name  string
		m     int
		res   platform.Reservation
		jobs  []Alloc
		valid bool
	}{
		{"job ends at the reservation's start", 2, platform.Reservation{Start: 5, End: 10, Procs: 2},
			[]Alloc{{Job: rigidFor(1, 5, 2), Start: 0, Procs: 2}}, true},
		{"job starts at the reservation's end", 2, platform.Reservation{Start: 0, End: 5, Procs: 2},
			[]Alloc{{Job: rigidFor(1, 5, 2), Start: 5, Procs: 2}}, true},
		{"one processor over during the window", 4, platform.Reservation{Start: 5, End: 10, Procs: 3},
			[]Alloc{{Job: rigidFor(1, 2, 2), Start: 6, Procs: 2}}, false},
		{"hairline jobs around a reservation", 2, platform.Reservation{Start: 0, End: 2, Procs: 1},
			[]Alloc{{Job: rigidFor(1, tenth+fifth, 1), Start: 0, Procs: 1}, {Job: rigidFor(2, 1, 1), Start: 0.3, Procs: 1}}, true},
		{"hairline job before a reservation", 1, platform.Reservation{Start: 0.3, End: 1, Procs: 1},
			[]Alloc{{Job: rigidFor(1, tenth+fifth, 1), Start: 0, Procs: 1}}, true},
		{"two jobs end together at the reservation's start", 2, platform.Reservation{Start: 5, End: 10, Procs: 2},
			[]Alloc{{Job: rigidFor(1, 5, 1), Start: 0, Procs: 1}, {Job: rigidFor(2, 5, 1), Start: 0, Procs: 1}}, true},
	} {
		c.res.Name = "r"
		cal, err := platform.NewCalendar(c.m, []platform.Reservation{c.res})
		if err != nil {
			t.Fatal(err)
		}
		s := &Schedule{M: c.m, Allocs: c.jobs}
		if err := s.ValidateWith(ValidateOptions{Calendar: cal}); (err == nil) != c.valid {
			t.Errorf("%s: ValidateWith = %v, want valid %v", c.name, err, c.valid)
		}
	}
}

// TestValidateCalendarWidth: reservations count against the schedule's
// M, so a calendar of another width is refused.
func TestValidateCalendarWidth(t *testing.T) {
	cal, _ := platform.NewCalendar(8, nil)
	s := New(4)
	s.Add(Alloc{Job: mold(1, 4, 4), Start: 0, Procs: 1})
	if err := s.ValidateWith(ValidateOptions{Calendar: cal}); err == nil {
		t.Fatal("calendar of 8 processors accepted for a schedule on 4")
	}
}

// TestAssignProcessors: overlapping jobs get disjoint processors, a
// hairline successor reuses its predecessor's, and the schedule is not
// changed.
func TestAssignProcessors(t *testing.T) {
	s := New(4)
	s.Add(Alloc{Job: mold(1, 8, 4), Start: 0, Procs: 2})
	s.Add(Alloc{Job: mold(2, 8, 4), Start: 0, Procs: 2})
	s.Add(Alloc{Job: mold(3, 4, 4), Start: 4, Procs: 4})
	before := slices.Clone(s.Allocs)
	ids, err := s.AssignProcessors()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(s.Allocs, before) {
		t.Fatal("AssignProcessors changed the schedule")
	}
	for _, p := range ids[0] {
		if slices.Contains(ids[1], p) {
			t.Fatal("overlapping jobs share a processor")
		}
	}
	if len(ids[2]) != 4 {
		t.Fatalf("job 3 got processors %v", ids[2])
	}
	// On one processor, [0, 0.1+0.2) and [0.3, 1.3) validate, so they
	// must also be assigned.
	h := New(1)
	h.Add(Alloc{Job: rigidFor(1, tenth+fifth, 1), Start: 0, Procs: 1})
	h.Add(Alloc{Job: rigidFor(2, 1, 1), Start: 0.3, Procs: 1})
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if ids, err := h.AssignProcessors(); err != nil || ids[0][0] != 0 || ids[1][0] != 0 {
		t.Fatalf("hairline successors: %v, %v", ids, err)
	}
}

func TestCovers(t *testing.T) {
	jobs := []*workload.Job{mold(1, 4, 2), mold(2, 4, 2)}
	s := New(2)
	s.Add(Alloc{Job: jobs[0], Start: 0, Procs: 1})
	if err := s.Covers(jobs); err == nil {
		t.Fatal("missing job not detected")
	}
	s.Add(Alloc{Job: jobs[1], Start: 0, Procs: 1})
	if err := s.Covers(jobs); err != nil {
		t.Fatal(err)
	}
	s.Add(Alloc{Job: mold(3, 4, 2), Start: 4, Procs: 1})
	if err := s.Covers(jobs); err == nil {
		t.Fatal("extra job not detected")
	}
}

func TestShiftAndMerge(t *testing.T) {
	s := New(2)
	s.Add(Alloc{Job: mold(1, 4, 2), Start: 0, Procs: 2})
	shifted := s.Shift(10)
	if shifted.Allocs[0].Start != 10 {
		t.Fatalf("Shift start = %v", shifted.Allocs[0].Start)
	}
	if s.Allocs[0].Start != 0 {
		t.Fatal("Shift mutated the original")
	}
	other := New(2)
	other.Add(Alloc{Job: mold(2, 4, 2), Start: 2, Procs: 2})
	if err := s.Merge(other); err != nil {
		t.Fatal(err)
	}
	if len(s.Allocs) != 2 {
		t.Fatal("Merge lost allocations")
	}
	bad := New(3)
	if err := s.Merge(bad); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

func TestReportFromSchedule(t *testing.T) {
	s := New(2)
	s.Add(Alloc{Job: mold(1, 4, 2), Start: 0, Procs: 2}) // ends 2
	r := s.Report()
	if r.Makespan != 2 || r.N != 1 {
		t.Fatalf("report = %+v", r)
	}
	if math.Abs(r.Utilization-1) > 1e-12 {
		t.Fatalf("utilization = %v, want 1", r.Utilization)
	}
}

// Property: a randomly generated non-overlapping stack of shelves always
// validates, and AssignProcessors always assigns it.
func TestScheduleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 16)
		s := New(m)
		clock := 0.0
		id := 1
		for shelf := 0; shelf < rng.IntRange(1, 5); shelf++ {
			free := m
			var maxDur float64
			for free > 0 && rng.Bool(0.8) {
				p := rng.IntRange(1, free)
				seq := rng.Range(1, 100)
				j := mold(id, seq, m)
				id++
				s.Add(Alloc{Job: j, Start: clock, Procs: p})
				if d := j.TimeOn(p); d > maxDur {
					maxDur = d
				}
				free -= p
			}
			clock += maxDur
		}
		if err := s.Validate(); err != nil {
			return false
		}
		_, err := s.AssignProcessors()
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
