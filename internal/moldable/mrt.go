package moldable

import (
	"fmt"
	"math"

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
// the batch package layers release dates on top. Every guess of the
// search is prepared and constructed on one Builder.
func MRT(jobs []*workload.Job, m int, eps float64) (*Result, error) {
	var b Builder
	return search(jobs, m, eps, func(costs []workload.Cost, lambda float64) (*sched.Schedule, bool) {
		b.prepare(costs, m, lambda, len(costs))
		return b.construct(len(costs))
	})
}

// MRTWithAllot is MRT with a pluggable allotment selector (for the
// knapsack-vs-greedy ablation); the selector's allotments are packed by
// the same Builder routine as MRT's own.
func MRTWithAllot(jobs []*workload.Job, m int, eps float64, allot AllotFunc) (*Result, error) {
	var b Builder
	return search(jobs, m, eps, func(costs []workload.Cost, lambda float64) (*sched.Schedule, bool) {
		al, ok := allot(costs, m, lambda)
		if !ok {
			return nil, false
		}
		return b.pack(al, m, lambda)
	})
}

// search is the dual-approximation driver: doubling from the lower bound
// to a guess that constructs, then bisection down to the smallest one
// within eps.
func search(jobs []*workload.Job, m int, eps float64, construct func([]workload.Cost, float64) (*sched.Schedule, bool)) (*Result, error) {
	if m <= 0 {
		return nil, fmt.Errorf("moldable: MRT on %d processors", m)
	}
	if eps <= 0 {
		eps = 0.01
	}
	if len(jobs) == 0 {
		return &Result{Schedule: sched.New(m), Lambda: 0}, nil
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
	res := &Result{}
	hi := lb
	var hiSched *sched.Schedule
	for i := 0; ; i++ {
		if s, ok := construct(costs, hi); ok {
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
		if s, ok := construct(costs, mid); ok {
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

// Rho is the makespan performance ratio of the construction used as the
// deadline procedure (the 3/2 of §4.1, ignoring the ε of the search).
const Rho = 1.5
