// Package moldable implements scheduling of moldable Parallel Tasks —
// the paper's core single-cluster machinery (§4.1). The centerpiece is
// the MRT dual-approximation algorithm: a guess λ of the optimal
// makespan is validated by a knapsack allotment selection that splits
// tasks between a λ-shelf and a λ/2-shelf while minimizing total work;
// a binary search then drives λ down to the smallest constructible
// guess, yielding a 3/2+ε performance ratio on monotone instances.
//
// The construction step follows the published two-shelf skeleton with an
// engineering simplification documented in DESIGN.md: shelf-2 tasks are
// inserted by first-fit-decreasing into the availability profile (which
// subsumes the paper's fold-under-shelf-1 transformations); any guess
// whose construction exceeds 3λ/2 is declared infeasible, so emitted
// schedules always satisfy the shelf bound for their accepted guess.
//
// Selection and packing live on one workspace, Builder: there is one
// knapsack (Builder.prepare) and one packing routine (Builder.pack), a
// guess is prepared once and every prefix of its job list is then
// constructible from the same table, and the scratch is reused from one
// attempt to the next.
package moldable

import "repro/internal/workload"

// Allotment is the per-job outcome of the knapsack selection for a guess λ.
type Allotment struct {
	Job *workload.Job
	// Procs is the selected processor count.
	Procs int
	// Time is the resulting execution time.
	Time float64
	// Shelf is 1 if the job is placed on the λ-shelf (time may exceed
	// λ/2), 2 if on the λ/2-shelf (time ≤ λ/2).
	Shelf int
}

// Work returns Procs * Time.
func (a Allotment) Work() float64 { return float64(a.Procs) * a.Time }

// SelectAllotments runs the §4.1 dual-approximation feasibility test for
// guess λ over the cost summaries of the jobs on m processors: each job
// is assigned either its canonical λ-allotment γ(j, λ) (shelf 1) or its
// canonical λ/2-allotment γ(j, λ/2) (shelf 2), choosing the split that
// minimizes total work subject to the shelf-1 width constraint Σ q ≤ m
// (the knapsack). It returns ok=false when λ is infeasible: some job
// cannot meet λ at all, forced shelf-1 width overflows m, or minimal
// total work exceeds the area λ·m. It is one selection on a throw-away
// Builder; MRT and the §4.4 batch step keep theirs.
func SelectAllotments(costs []workload.Cost, m int, lambda float64) (allot []Allotment, ok bool) {
	var b Builder
	b.prepare(costs, m, lambda, len(costs))
	if !b.selectPrefix(len(costs)) {
		return nil, false
	}
	return b.allot, true
}

// GreedyAllotments is the ablation alternative to the knapsack: jobs are
// assigned γ(j, λ) unconditionally (everyone targets the λ-shelf) and
// classified by their resulting time. Cheaper but ignores the shelf-1
// width budget, so construction fails more often and the binary search
// settles on larger guesses.
func GreedyAllotments(costs []workload.Cost, m int, lambda float64) (allot []Allotment, ok bool) {
	if lambda <= 0 {
		return nil, false
	}
	allot = make([]Allotment, len(costs))
	var work float64
	for i := range costs {
		q := costs[i].Gamma(lambda)
		if q == 0 {
			return nil, false
		}
		j := costs[i].Job
		t := j.TimeOn(q)
		shelf := 1
		if t <= lambda/2 {
			shelf = 2
		}
		allot[i] = Allotment{Job: j, Procs: q, Time: t, Shelf: shelf}
		work += allot[i].Work()
	}
	if work > lambda*float64(m)*(1+1e-12) {
		return nil, false
	}
	return allot, true
}
