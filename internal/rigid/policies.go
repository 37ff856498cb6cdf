package rigid

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Order is a queue ordering for the list-based policies.
type Order int

const (
	// ByRelease orders by release date then ID (submission order).
	ByRelease Order = iota
	// ByLPT orders by decreasing processing time (longest first).
	ByLPT
	// BySPT orders by increasing processing time (shortest first).
	BySPT
	// ByArea orders by decreasing processor-time area.
	ByArea
)

// sortJobs returns the jobs' positions in the requested order, each job
// priced on width(jobs, procs, i) processors. Each job's key is computed
// once: one ascending or descending float per order, equal keys falling
// through to the job ID and then to the input position.
func sortJobs(jobs []*workload.Job, procs []int, ord Order) []workload.Keyed {
	keys := make([]workload.Keyed, len(jobs))
	for i, j := range jobs {
		var k float64
		switch ord {
		case ByLPT, BySPT:
			k = j.TimeOn(width(jobs, procs, i))
		case ByArea:
			k = j.WorkOn(width(jobs, procs, i))
		default: // ByRelease
			k = j.Release
		}
		keys[i] = workload.Keyed{Key: k, ID: j.ID, Pos: i}
	}
	workload.SortKeyed(keys, ord == ByLPT || ord == ByArea)
	return keys
}

// width returns the processor count job i runs on: procs[i], or with
// procs nil the job's MinProcs — a rigid job's fixed count, the
// smallest width of a moldable one (callers wanting smarter allotments
// choose the widths themselves, as the moldable baselines do).
func width(jobs []*workload.Job, procs []int, i int) int {
	if procs != nil {
		return procs[i]
	}
	return jobs[i].MinProcs
}

// FCFSWithCalendar schedules jobs strictly in queue order around a
// reservation calendar (§5.1; nil for none): a job never starts before
// any job ahead of it in the queue. This is the no-backfilling baseline
// every batch system starts from.
func FCFSWithCalendar(jobs []*workload.Job, m int, cal *platform.Calendar) (*sched.Schedule, error) {
	profile, err := profileFor(m, cal)
	if err != nil {
		return nil, err
	}
	s := sched.New(m)
	frontier := 0.0 // start-time monotonicity enforces queue order
	for _, k := range sortJobs(jobs, nil, ByRelease) {
		j, procs := jobs[k.Pos], jobs[k.Pos].MinProcs
		dur := j.TimeOn(procs)
		ready := math.Max(j.Release, frontier)
		start, err := profile.EarliestSlot(ready, dur, procs)
		if err != nil {
			return nil, fmt.Errorf("rigid: FCFS cannot place job %d: %w", j.ID, err)
		}
		if err := profile.Reserve(start, dur, procs); err != nil {
			return nil, err
		}
		s.Add(sched.Alloc{Job: j, Start: start, Procs: procs})
		frontier = start
	}
	return s, nil
}

// Conservative builds a conservative-backfilling schedule: each job in
// queue order receives the earliest slot that fits, holes included, so no
// job is ever delayed by a later-queued job ("conservative backfilling",
// the variant the paper cites for hole-filling in §5.2).
func Conservative(jobs []*workload.Job, m int) (*sched.Schedule, error) {
	return ConservativeWithCalendar(jobs, m, nil)
}

// ConservativeWithCalendar is Conservative around reservations.
func ConservativeWithCalendar(jobs []*workload.Job, m int, cal *platform.Calendar) (*sched.Schedule, error) {
	return listWithProfile(jobs, nil, ByRelease, m, cal)
}

// List schedules jobs by the given priority order, giving each job the
// earliest slot that fits (Graham list scheduling generalized to rigid
// multiprocessor jobs). With ByLPT this is the classic LPT baseline.
// Job i runs on procs[i] processors, a width it allows, and the order
// prices it there; with procs nil every job runs on its MinProcs. The
// allocations name the jobs themselves.
func List(jobs []*workload.Job, procs []int, m int, ord Order) (*sched.Schedule, error) {
	if procs != nil && len(procs) != len(jobs) {
		return nil, fmt.Errorf("rigid: %d widths for %d jobs", len(procs), len(jobs))
	}
	for i, p := range procs {
		if j := jobs[i]; !j.CanRunOn(p) {
			return nil, fmt.Errorf("rigid: job %d cannot run on %d procs (range [%d,%d])", j.ID, p, j.MinProcs, j.MaxProcs)
		}
	}
	return listWithProfile(jobs, procs, ord, m, nil)
}

func profileFor(m int, cal *platform.Calendar) (*Profile, error) {
	if cal != nil {
		if cal.M() != m {
			return nil, fmt.Errorf("rigid: calendar width %d != platform %d", cal.M(), m)
		}
		return NewProfileFromCalendar(cal)
	}
	return NewProfile(m), nil
}

func listWithProfile(jobs []*workload.Job, widths []int, ord Order, m int, cal *platform.Calendar) (*sched.Schedule, error) {
	profile, err := profileFor(m, cal)
	if err != nil {
		return nil, err
	}
	s := sched.New(m)
	for _, k := range sortJobs(jobs, widths, ord) {
		j, procs := jobs[k.Pos], width(jobs, widths, k.Pos)
		dur := j.TimeOn(procs)
		start, err := profile.EarliestSlot(j.Release, dur, procs)
		if err != nil {
			return nil, fmt.Errorf("rigid: cannot place job %d: %w", j.ID, err)
		}
		if err := profile.Reserve(start, dur, procs); err != nil {
			return nil, err
		}
		s.Add(sched.Alloc{Job: j, Start: start, Procs: procs})
	}
	return s, nil
}

// Shelf is one shelf of a shelf-based schedule: all jobs start together
// at the shelf's start time (§4.3's packing scheme).
type Shelf struct {
	Start  float64
	Height float64 // shelf duration = max job time inside
	Jobs   []*workload.Job
	used   int
}

// FFDH packs with First-Fit Decreasing Height: each job goes on the first
// existing shelf with room, else opens a new shelf. Shelf start times are
// assigned afterwards by stacking.
func FFDH(jobs []*workload.Job, m int) ([]*Shelf, error) {
	var shelves []*Shelf
	for _, k := range sortJobs(jobs, nil, ByLPT) {
		j, procs := jobs[k.Pos], jobs[k.Pos].MinProcs
		if procs > m {
			return nil, fmt.Errorf("rigid: job %d needs %d > %d procs", j.ID, procs, m)
		}
		placed := false
		for _, sh := range shelves {
			if sh.used+procs <= m {
				placeOnShelf(sh, j, procs)
				placed = true
				break
			}
		}
		if !placed {
			sh := &Shelf{}
			placeOnShelf(sh, j, procs)
			shelves = append(shelves, sh)
		}
	}
	RestackShelves(shelves, 0)
	return shelves, nil
}

func placeOnShelf(sh *Shelf, j *workload.Job, procs int) {
	sh.Jobs = append(sh.Jobs, j)
	sh.used += procs
	if t := j.TimeOn(procs); t > sh.Height {
		sh.Height = t
	}
}

// RestackShelves assigns start times by stacking the shelves in order
// starting at base.
func RestackShelves(shelves []*Shelf, base float64) {
	clock := base
	for _, sh := range shelves {
		sh.Start = clock
		clock += sh.Height
	}
}

// ShelvesToSchedule converts shelves to a flat schedule on m processors.
func ShelvesToSchedule(shelves []*Shelf, m int) *sched.Schedule {
	s := sched.New(m)
	for _, sh := range shelves {
		for _, j := range sh.Jobs {
			s.Add(sched.Alloc{Job: j, Start: sh.Start, Procs: j.MinProcs})
		}
	}
	return s
}

// Compact left-shifts a schedule: allocations are re-placed in
// non-decreasing start order (ties by job ID), each at the earliest slot
// the profile allows at its allotted width, never before its release.
// The result is never worse on makespan or any completion time and is
// the standard post-pass after batch-structured algorithms (batches and
// shelves leave idle steps that compaction reclaims).
func Compact(s *sched.Schedule) (*sched.Schedule, error) {
	ordered := append([]sched.Alloc(nil), s.Allocs...)
	slices.SortStableFunc(ordered, func(a, b sched.Alloc) int {
		if a.Start != b.Start {
			if a.Start < b.Start {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Job.ID, b.Job.ID)
	})
	profile := NewProfile(s.M)
	out := sched.New(s.M)
	for _, a := range ordered {
		dur := a.Job.TimeOn(a.Procs)
		start, err := profile.EarliestSlot(a.Job.Release, dur, a.Procs)
		if err != nil {
			return nil, fmt.Errorf("rigid: compaction failed for job %d: %w", a.Job.ID, err)
		}
		if start > a.Start {
			start = a.Start // never move a job later than it already was
		}
		if err := profile.Reserve(start, dur, a.Procs); err != nil {
			return nil, err
		}
		out.Add(sched.Alloc{Job: a.Job, Start: start, Procs: a.Procs})
	}
	return out, nil
}
