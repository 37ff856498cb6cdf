package moldable

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lowerbound"
	"repro/internal/rigid"
	"repro/internal/sched"
	"repro/internal/workload"
)

// AllotFunc selects allotments for a guess λ (knapsack or greedy) from
// the jobs' cost summaries on m processors.
type AllotFunc func(costs []workload.Cost, m int, lambda float64) ([]Allotment, bool)

// Result is the outcome of the MRT dual-approximation.
type Result struct {
	Schedule *sched.Schedule
	// Lambda is the accepted guess: the smallest λ found whose
	// construction fits within 3λ/2.
	Lambda float64
	// LowerBound is the certified makespan lower bound of the instance.
	LowerBound float64
	// Iterations counts binary-search steps.
	Iterations int
}

// Ratio returns makespan / lower bound (an upper bound on the true
// performance ratio).
func (r *Result) Ratio() float64 {
	if r.LowerBound <= 0 {
		return 1
	}
	return r.Schedule.Makespan() / r.LowerBound
}

// MRT schedules independent moldable jobs offline on m processors for
// makespan, with accuracy parameter eps > 0 controlling the binary
// search (§4.1: performance ratio 3/2 + ε on monotone instances).
// Release dates are ignored (offline model: everything available at 0);
// the batch package layers release dates on top.
func MRT(jobs []*workload.Job, m int, eps float64) (*Result, error) {
	return MRTWithAllot(jobs, m, eps, SelectAllotments)
}

// MRTWithAllot is MRT with a pluggable allotment selector (for the
// knapsack-vs-greedy ablation).
func MRTWithAllot(jobs []*workload.Job, m int, eps float64, allot AllotFunc) (*Result, error) {
	if m <= 0 {
		return nil, fmt.Errorf("moldable: MRT on %d processors", m)
	}
	if eps <= 0 {
		eps = 0.01
	}
	if len(jobs) == 0 {
		return &Result{Schedule: sched.New(m), Lambda: 0, LowerBound: 0}, nil
	}
	costs := workload.Costs(jobs, m)
	for i := range costs {
		if t, _ := costs[i].MinTime(); math.IsInf(t, 0) {
			return nil, fmt.Errorf("moldable: job %d cannot run on %d processors", jobs[i].ID, m)
		}
	}
	lb := lowerbound.CmaxDualOf(costs, m)
	if lb <= 0 {
		return nil, fmt.Errorf("moldable: degenerate lower bound %v", lb)
	}

	// Find a feasible upper guess by doubling from the lower bound.
	res := &Result{LowerBound: lb}
	hi := lb
	var hiSched *sched.Schedule
	for i := 0; ; i++ {
		if s, ok := construct(costs, m, hi, allot); ok {
			hiSched = s
			break
		}
		hi *= 2
		if i > 60 {
			return nil, fmt.Errorf("moldable: no feasible guess found up to %v", hi)
		}
	}
	lo := lb // invariant: guesses at or below lo may be infeasible; hi works
	res.Lambda = hi
	res.Schedule = hiSched

	for res.Iterations = 0; hi-lo > eps*lo && res.Iterations < 200; res.Iterations++ {
		mid := (lo + hi) / 2
		if s, ok := construct(costs, m, mid, allot); ok {
			hi = mid
			res.Lambda = mid
			res.Schedule = s
		} else {
			lo = mid
		}
	}
	if err := res.Schedule.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
		return nil, fmt.Errorf("moldable: produced invalid schedule: %w", err)
	}
	return res, nil
}

// construct attempts to build a schedule for guess λ within the 3λ/2
// two-shelf envelope. Shelf-1 jobs (time in (λ/2, λ]) all start at 0;
// shelf-2 jobs are folded into the remaining capacity by first-fit
// decreasing time over the availability profile (this subsumes both the
// paper's second shelf at t=λ and its insert-under-shelf-1
// transformations). Construction fails if the resulting makespan exceeds
// 3λ/2, which keeps the accepted-guess invariant of the dual
// approximation.
func construct(costs []workload.Cost, m int, lambda float64, allot AllotFunc) (*sched.Schedule, bool) {
	al, ok := allot(costs, m, lambda)
	if !ok {
		return nil, false
	}
	var shelf1, shelf2 []Allotment
	for _, a := range al {
		if a.Shelf == 1 {
			shelf1 = append(shelf1, a)
		} else {
			shelf2 = append(shelf2, a)
		}
	}
	s := sched.New(m)
	profile := rigid.NewProfile(m)
	// Shelf 1: all at time 0, width fits by the knapsack constraint (the
	// greedy ablation may overflow here — then the guess fails).
	for _, a := range shelf1 {
		if err := profile.Reserve(0, a.Time, a.Procs); err != nil {
			return nil, false
		}
		s.Add(sched.Alloc{Job: a.Job, Start: 0, Procs: a.Procs})
	}
	// Shelf 2: first-fit decreasing time into the profile.
	sort.SliceStable(shelf2, func(i, k int) bool {
		if shelf2[i].Time != shelf2[k].Time {
			return shelf2[i].Time > shelf2[k].Time
		}
		return shelf2[i].Job.ID < shelf2[k].Job.ID
	})
	limit := 1.5 * lambda * (1 + 1e-9)
	for _, a := range shelf2 {
		start, err := profile.EarliestSlot(0, a.Time, a.Procs)
		if err != nil || start+a.Time > limit {
			return nil, false
		}
		if err := profile.Reserve(start, a.Time, a.Procs); err != nil {
			return nil, false
		}
		s.Add(sched.Alloc{Job: a.Job, Start: start, Procs: a.Procs})
	}
	return s, true
}

// ConstructForDeadline exposes the single-guess construction: it tries to
// schedule all jobs (given by their cost summaries on m processors)
// within 3d/2 using guess d and reports success. The bicriteria package
// uses it as its deadline procedure (ACmax in §4.4 with ρCmax = 3/2).
func ConstructForDeadline(costs []workload.Cost, m int, d float64) (*sched.Schedule, bool) {
	return construct(costs, m, d, SelectAllotments)
}

// Rho is the makespan performance ratio of the construction used as the
// deadline procedure (the 3/2 of §4.1, ignoring the ε of the search).
const Rho = 1.5
