// Package sched holds the schedule (Gantt chart) representation shared by
// every scheduling algorithm in the repository, its validity checker, and
// conversions to metric records and concrete processor assignments.
//
// Algorithms produce allocations as (job, start, processor count); the
// package verifies the §2.2 semantics — rigid jobs get exactly their
// requested processors, moldable jobs a legal count fixed for the whole
// execution, release dates respected, platform capacity never exceeded —
// and can materialize concrete processor IDs via the platform sweep.
package sched

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Alloc is one scheduled job: Start time and processor count. Duration is
// normally derived from the job profile; a positive Duration overrides it
// (used by heterogeneous-speed simulations where the same job runs slower
// on another cluster).
type Alloc struct {
	Job      *workload.Job
	Start    float64
	Procs    int
	Duration float64 // 0 ⇒ Job.TimeOn(Procs)
	// ProcIDs, when non-nil, pins the concrete processors.
	ProcIDs []int
}

// End returns Start + the effective duration.
func (a Alloc) End() float64 { return a.Start + a.EffectiveDuration() }

// EffectiveDuration returns Duration if set, else the job profile time.
func (a Alloc) EffectiveDuration() float64 {
	if a.Duration > 0 {
		return a.Duration
	}
	return a.Job.TimeOn(a.Procs)
}

// Schedule is a complete Gantt chart on m processors.
type Schedule struct {
	M      int
	Allocs []Alloc
}

// New creates an empty schedule on m processors.
func New(m int) *Schedule {
	return &Schedule{M: m}
}

// Add appends an allocation.
func (s *Schedule) Add(a Alloc) { s.Allocs = append(s.Allocs, a) }

// Makespan returns the latest completion time (0 for an empty schedule).
func (s *Schedule) Makespan() float64 {
	var mk float64
	for _, a := range s.Allocs {
		if e := a.End(); e > mk {
			mk = e
		}
	}
	return mk
}

// Completions converts the schedule to metric records.
func (s *Schedule) Completions() []metrics.Completion {
	cs := make([]metrics.Completion, len(s.Allocs))
	for i, a := range s.Allocs {
		cs[i] = metrics.Completion{Job: a.Job, Start: a.Start, End: a.End(), Procs: a.Procs}
	}
	return cs
}

// SumWeightedCompletion returns ΣωiCi without building a Report: the
// same additions, in allocation order, as Report().SumWeightedCompletion.
func (s *Schedule) SumWeightedCompletion() float64 {
	var sum float64
	for _, a := range s.Allocs {
		sum += a.Job.Weight * a.End()
	}
	return sum
}

// Report evaluates all §3 criteria on the schedule.
func (s *Schedule) Report() metrics.Report {
	return metrics.NewReport(s.Completions(), s.M)
}

// ValidateOptions tunes schedule validation.
type ValidateOptions struct {
	// IgnoreReleases skips the start >= release check (used by offline
	// algorithms that deliberately reset releases to 0).
	IgnoreReleases bool
	// AllowDurationOverride accepts Duration != Job.TimeOn(Procs).
	AllowDurationOverride bool
	// Calendar, when non-nil, additionally checks that allocations only
	// use processors left free by reservations.
	Calendar *platform.Calendar
}

// Validate checks the full §2.2 semantics with default options.
func (s *Schedule) Validate() error { return s.ValidateWith(ValidateOptions{}) }

// ValidateWith checks:
//   - every allocation has a legal processor count for its job kind;
//   - durations match the moldable profile (unless overridden);
//   - no job appears twice;
//   - release dates are respected (unless ignored);
//   - aggregate demand never exceeds M (and reservations, if any);
//   - pinned ProcIDs are in range, unique, and non-overlapping.
func (s *Schedule) ValidateWith(opt ValidateOptions) error {
	if s.M <= 0 {
		return fmt.Errorf("sched: schedule on %d processors", s.M)
	}
	seen := make(map[int]bool, len(s.Allocs))
	intervals := make([]platform.Interval, 0, len(s.Allocs))
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
		if !opt.AllowDurationOverride && a.Duration > 0 {
			want := j.TimeOn(a.Procs)
			if math.Abs(a.Duration-want) > eps*(1+want) {
				return fmt.Errorf("sched: job %d duration %v != profile %v", j.ID, a.Duration, want)
			}
		}
		if !opt.IgnoreReleases && a.Start < j.Release-eps {
			return fmt.Errorf("sched: job %d starts at %v before release %v", j.ID, a.Start, j.Release)
		}
		if a.Start < 0 {
			return fmt.Errorf("sched: job %d starts at negative time %v", j.ID, a.Start)
		}
		if a.ProcIDs != nil {
			if len(a.ProcIDs) != a.Procs {
				return fmt.Errorf("sched: job %d pins %d procs but Procs=%d", j.ID, len(a.ProcIDs), a.Procs)
			}
			ids := map[int]bool{}
			for _, p := range a.ProcIDs {
				if p < 0 || p >= s.M {
					return fmt.Errorf("sched: job %d pins out-of-range proc %d", j.ID, p)
				}
				if ids[p] {
					return fmt.Errorf("sched: job %d pins proc %d twice", j.ID, p)
				}
				ids[p] = true
			}
		}
		intervals = append(intervals, platform.Interval{Start: a.Start, End: a.End(), Count: a.Procs})
	}
	if peak := platform.PeakDemand(intervals); peak > s.M {
		return fmt.Errorf("sched: peak demand %d exceeds %d processors", peak, s.M)
	}
	if opt.Calendar != nil {
		if err := s.validateCalendar(opt.Calendar); err != nil {
			return err
		}
	}
	// Pairwise overlap check for pinned processors.
	return s.validatePinned()
}

func (s *Schedule) validateCalendar(cal *platform.Calendar) error {
	// At every allocation boundary, demand must fit the free capacity.
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
		// Check the interval [e.t, next boundary): availability may dip
		// inside due to a reservation starting there.
		end := math.Inf(1)
		if i+1 < len(evs) {
			end = evs[i+1].t
		}
		if cur > 0 && cal.MinAvailable(e.t, end) < cur {
			return fmt.Errorf("sched: demand %d exceeds reservation-free capacity after t=%v", cur, e.t)
		}
	}
	return nil
}

func (s *Schedule) validatePinned() error {
	pinned := make([]Alloc, 0)
	for _, a := range s.Allocs {
		if a.ProcIDs != nil {
			pinned = append(pinned, a)
		}
	}
	for i := range pinned {
		for k := i + 1; k < len(pinned); k++ {
			a, b := pinned[i], pinned[k]
			if a.Start < b.End() && b.Start < a.End() {
				used := map[int]bool{}
				for _, p := range a.ProcIDs {
					used[p] = true
				}
				for _, p := range b.ProcIDs {
					if used[p] {
						return fmt.Errorf("sched: jobs %d and %d share proc %d while overlapping",
							a.Job.ID, b.Job.ID, p)
					}
				}
			}
		}
	}
	return nil
}

// AssignProcessors computes concrete processor IDs for every allocation
// that does not pin them yet, using the platform interval sweep. The
// schedule must be valid. The assignment is stored in place.
func (s *Schedule) AssignProcessors() error {
	intervals := make([]platform.Interval, len(s.Allocs))
	for i, a := range s.Allocs {
		intervals[i] = platform.Interval{Start: a.Start, End: a.End(), Count: a.Procs}
	}
	ids, err := platform.Assign(s.M, intervals)
	if err != nil {
		return err
	}
	for i := range s.Allocs {
		if s.Allocs[i].ProcIDs == nil {
			s.Allocs[i].ProcIDs = ids[i]
		}
	}
	return nil
}

// Covers reports whether the schedule contains exactly the given jobs.
func (s *Schedule) Covers(jobs []*workload.Job) error {
	want := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		want[j.ID] = true
	}
	got := make(map[int]bool, len(s.Allocs))
	for _, a := range s.Allocs {
		got[a.Job.ID] = true
	}
	for id := range want {
		if !got[id] {
			return fmt.Errorf("sched: job %d missing from schedule", id)
		}
	}
	for id := range got {
		if !want[id] {
			return fmt.Errorf("sched: unexpected job %d in schedule", id)
		}
	}
	return nil
}

// Shift returns a copy of the schedule with every start time moved by dt.
func (s *Schedule) Shift(dt float64) *Schedule {
	out := New(s.M)
	for _, a := range s.Allocs {
		a.Start += dt
		out.Add(a)
	}
	return out
}

// Merge appends all allocations of other into s (same platform width
// required).
func (s *Schedule) Merge(other *Schedule) error {
	if other.M != s.M {
		return fmt.Errorf("sched: merging schedules of widths %d and %d", other.M, s.M)
	}
	s.Allocs = append(s.Allocs, other.Allocs...)
	return nil
}
