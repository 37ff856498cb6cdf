package moldable

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/lowerbound"
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
	// Iterations counts binary-search steps.
	Iterations int
}

// MRT schedules independent moldable jobs offline on m processors for
// makespan, with accuracy parameter eps > 0 controlling the binary
// search (§4.1: performance ratio 3/2 + ε on monotone instances).
// Release dates are ignored (offline model: everything available at 0);
// the batch package layers release dates on top. It prices the jobs and
// starts the search from their dual bound, as MRTOf does.
func MRT(jobs []*workload.Job, m int, eps float64) (*Result, error) {
	costs := workload.Costs(jobs, m)
	return MRTOf(costs, m, lowerbound.CmaxDualOf(costs, m), eps)
}

// MRTOf is MRT for callers that already hold the jobs' cost summaries on
// m processors and their dual bound lb = lowerbound.CmaxDualOf(costs, m),
// the guess the search starts from. Every guess of the search is
// prepared and constructed on one Builder.
func MRTOf(costs []workload.Cost, m int, lb, eps float64) (*Result, error) {
	b := builders.Get().(*Builder)
	defer builders.Put(b)
	return search(costs, m, lb, eps, func(lambda float64) (*sched.Schedule, bool) {
		b.prepare(costs, m, lambda, len(costs))
		return b.construct(len(costs))
	})
}

// MRTWithAllotOf is MRTOf with a pluggable allotment selector (for the
// knapsack-vs-greedy ablation); the selector's allotments are packed by
// the same Builder routine as MRT's own.
func MRTWithAllotOf(costs []workload.Cost, m int, lb, eps float64, allot AllotFunc) (*Result, error) {
	b := builders.Get().(*Builder)
	defer builders.Put(b)
	return search(costs, m, lb, eps, func(lambda float64) (*sched.Schedule, bool) {
		al, ok := allot(costs, m, lambda)
		if !ok {
			return nil, false
		}
		return b.pack(al, m, lambda)
	})
}

// builders holds idle Builders, so that one search reuses the scratch
// an earlier one grew. search copies out every schedule it keeps, so no
// result refers to a pooled Builder.
var builders = sync.Pool{New: func() any { return new(Builder) }}

// search is the dual-approximation driver: doubling from the lower bound
// lb to a guess that constructs, then bisection down to the smallest one
// within eps. A schedule construct returns lives in its Builder's buffer,
// so an accepted one is copied out.
func search(costs []workload.Cost, m int, lb, eps float64, construct func(float64) (*sched.Schedule, bool)) (*Result, error) {
	if m <= 0 {
		return nil, fmt.Errorf("moldable: MRT on %d processors", m)
	}
	if math.IsNaN(eps) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("moldable: eps %v is not a finite number", eps)
	}
	if eps <= 0 {
		eps = 0.01
	}
	if len(costs) == 0 {
		return &Result{Schedule: sched.New(m), Lambda: 0}, nil
	}
	for i := range costs {
		if t, _ := costs[i].MinTime(); math.IsInf(t, 0) {
			return nil, fmt.Errorf("moldable: job %d cannot run on %d processors", costs[i].Job.ID, m)
		}
	}
	if !(lb > 0) || math.IsInf(lb, 0) {
		return nil, fmt.Errorf("moldable: degenerate lower bound %v", lb)
	}
	keep := func(s *sched.Schedule) *sched.Schedule {
		return &sched.Schedule{M: s.M, Allocs: slices.Clone(s.Allocs)}
	}

	// Find a feasible upper guess by doubling from the lower bound.
	res := &Result{}
	hi := lb
	var hiSched *sched.Schedule
	for i := 0; ; i++ {
		if s, ok := construct(hi); ok {
			hiSched = keep(s)
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
		if s, ok := construct(mid); ok {
			hi = mid
			res.Lambda = mid
			res.Schedule = keep(s)
		} else {
			lo = mid
		}
	}
	if err := res.Schedule.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
		return nil, fmt.Errorf("moldable: produced invalid schedule: %w", err)
	}
	return res, nil
}

// Rho is the makespan performance ratio of the construction used as the
// deadline procedure (the 3/2 of §4.1, ignoring the ε of the search).
const Rho = 1.5
