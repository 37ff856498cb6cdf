// Package sched holds the schedule (Gantt chart) representation shared by
// every scheduling algorithm in the repository, its validity checker, and
// conversions to metric records and concrete processor assignments.
//
// Algorithms produce allocations as (job, start, processor count); the
// package verifies the §2.2 semantics — rigid jobs get exactly their
// requested processors, moldable jobs a legal count fixed for the whole
// execution, release dates respected, platform capacity never exceeded,
// §5.1 reservations included — and can materialize concrete processor
// IDs via the platform sweep.
package sched

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/workload"
)

// Alloc is one scheduled job: it holds Procs processors from Start for
// Job.TimeOn(Procs).
type Alloc struct {
	Job   *workload.Job
	Start float64
	Procs int
}

// End returns Start + Job.TimeOn(Procs).
func (a Alloc) End() float64 { return a.Start + a.Job.TimeOn(a.Procs) }

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

// SumWeightedCompletion returns ΣωiCi without building a Report: the
// same additions, in allocation order, as Report().SumWeightedCompletion.
func (s *Schedule) SumWeightedCompletion() float64 {
	var sum float64
	for _, a := range s.Allocs {
		sum += a.Job.Weight * a.End()
	}
	return sum
}

// Report evaluates all §3 criteria on the schedule, folding its
// allocations in order.
func (s *Schedule) Report() metrics.Report {
	acc := metrics.NewAccumulator(s.M)
	for _, a := range s.Allocs {
		acc.Add(metrics.Completion{Job: a.Job, Start: a.Start, End: a.End(), Procs: a.Procs})
	}
	return acc.Report()
}

// ValidateOptions tunes schedule validation.
type ValidateOptions struct {
	// IgnoreReleases skips the start >= release check (used by offline
	// algorithms that deliberately reset releases to 0).
	IgnoreReleases bool
	// Calendar, when non-nil, counts its reservations as processor
	// demand (§5.1), so allocations only use processors they leave free.
	Calendar *platform.Calendar
}

// Validate checks the full §2.2 semantics with default options.
func (s *Schedule) Validate() error { return s.ValidateWith(ValidateOptions{}) }

// ValidateWith checks:
//   - every allocation has a legal processor count for its job kind;
//   - no job appears twice;
//   - release dates are respected (unless ignored);
//   - aggregate demand, reservations included, never exceeds M, under
//     platform.PeakDemand's tie rule.
func (s *Schedule) ValidateWith(opt ValidateOptions) error {
	if s.M <= 0 {
		return fmt.Errorf("sched: schedule on %d processors", s.M)
	}
	repeat := firstRepeat(s.Allocs)
	demand := platform.NewDemand(len(s.Allocs))
	defer demand.Release()
	const eps = 1e-9
	for i, a := range s.Allocs {
		j := a.Job
		if j == nil {
			return fmt.Errorf("sched: allocation %d has nil job", i)
		}
		if i == repeat {
			return fmt.Errorf("sched: job %d scheduled twice", j.ID)
		}
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
		demand.Add(a.Start, a.End(), a.Procs)
	}
	if cal := opt.Calendar; cal != nil {
		if cal.M() != s.M {
			return fmt.Errorf("sched: calendar of %d processors for a schedule on %d", cal.M(), s.M)
		}
		for _, r := range cal.Reservations() {
			demand.Add(r.Start, r.End, r.Procs)
		}
	}
	if peak := demand.Peak(); peak > s.M {
		return fmt.Errorf("sched: peak demand %d exceeds %d processors", peak, s.M)
	}
	return nil
}

// firstRepeat returns the index of the first allocation whose job ID an
// earlier allocation already holds, or -1 if no ID repeats; nil jobs are
// skipped. IDs that span fewer than 64 values per allocation, as dense
// job numbers do, are marked in a bitset; sparser ones in a map.
func firstRepeat(allocs []Alloc) int {
	lo, hi := math.MaxInt, math.MinInt
	for _, a := range allocs {
		if a.Job != nil {
			lo, hi = min(lo, a.Job.ID), max(hi, a.Job.ID)
		}
	}
	if lo > hi {
		return -1
	}
	// The difference wraps as an int but is exact as a uint.
	if span := uint(hi - lo); span/64 < uint(len(allocs)) {
		bits := make([]uint64, span/64+1)
		for i, a := range allocs {
			if a.Job == nil {
				continue
			}
			k := uint(a.Job.ID - lo)
			if bits[k/64]&(1<<(k%64)) != 0 {
				return i
			}
			bits[k/64] |= 1 << (k % 64)
		}
		return -1
	}
	seen := make(map[int]bool, len(allocs))
	for i, a := range allocs {
		if a.Job == nil {
			continue
		}
		if seen[a.Job.ID] {
			return i
		}
		seen[a.Job.ID] = true
	}
	return -1
}

// intervals returns each allocation's demand over [Start, End()).
func (s *Schedule) intervals() []platform.Interval {
	out := make([]platform.Interval, len(s.Allocs))
	for i, a := range s.Allocs {
		out[i] = platform.Interval{Start: a.Start, End: a.End(), Count: a.Procs}
	}
	return out
}

// AssignProcessors returns concrete processor IDs for every allocation,
// in allocation order, from the platform interval sweep; it fails if the
// schedule oversubscribes its M processors. The schedule is not changed.
func (s *Schedule) AssignProcessors() ([][]int, error) {
	return platform.Assign(s.M, s.intervals())
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
