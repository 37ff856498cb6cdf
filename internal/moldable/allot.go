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
package moldable

import (
	"fmt"
	"math"

	"repro/internal/workload"
)

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
// total work exceeds the area λ·m.
func SelectAllotments(costs []workload.Cost, m int, lambda float64) (allot []Allotment, ok bool) {
	if lambda <= 0 {
		return nil, false
	}
	type option struct {
		q1, q2 int  // γ(λ), γ(λ/2); q2 == 0 ⇒ forced shelf 1
		shelf1 bool // picked for shelf 1 by the knapsack
	}
	// 0/1 knapsack candidates: moving an optional job to shelf 1 saves
	// (w2 - w1) ≥ 0 work (monotone jobs) but consumes q1 of the shelf-1
	// width budget. Jobs whose two options coincide (q1 == q2) stay on
	// shelf 2 — identical cost, no width consumed.
	type cand struct {
		idx    int
		width  int
		saving float64
	}
	opts := make([]option, len(costs))
	cands := make([]cand, 0, len(costs))
	forcedWidth := 0
	baseWork := 0.0 // work if every optional job sits on shelf 2
	for i := range costs {
		c := &costs[i]
		q1 := c.Gamma(lambda)
		if q1 == 0 {
			return nil, false // job cannot meet the deadline at all
		}
		q2 := c.Gamma(lambda / 2)
		opts[i] = option{q1: q1, q2: q2}
		w1 := c.Job.WorkOn(q1)
		if q2 == 0 {
			forcedWidth += q1
			baseWork += w1
			continue
		}
		w2 := c.Job.WorkOn(q2)
		baseWork += w2
		if q1 != q2 {
			saving := w2 - w1
			if saving < 0 {
				saving = 0 // non-monotone profile; shelf 1 never pays off
			}
			cands = append(cands, cand{idx: i, width: q1, saving: saving})
		}
	}
	if forcedWidth > m {
		return nil, false
	}
	capacity := m - forcedWidth

	// Maximize savings within the remaining capacity.
	dp := make([]float64, capacity+1)
	// take is one bitset of len(cands) rows, stride words each: bit w of
	// row k says candidate k improved dp[w].
	stride := capacity/64 + 1
	take := make([]uint64, len(cands)*stride)
	for k, c := range cands {
		row := take[k*stride : (k+1)*stride]
		for w := capacity; w >= c.width; w-- {
			if v := dp[w-c.width] + c.saving; v > dp[w] {
				dp[w] = v
				row[w/64] |= 1 << (w % 64)
			}
		}
	}
	// Reconstruct choices.
	w := capacity
	for k := len(cands) - 1; k >= 0; k-- {
		if take[k*stride+w/64]&(1<<(w%64)) != 0 {
			opts[cands[k].idx].shelf1 = true
			w -= cands[k].width
		}
	}
	totalWork := baseWork - dp[capacity]
	if totalWork > lambda*float64(m)*(1+1e-12) {
		return nil, false
	}

	allot = make([]Allotment, len(costs))
	for i, o := range opts {
		j := costs[i].Job
		switch {
		case o.q2 == 0 || o.shelf1:
			allot[i] = Allotment{Job: j, Procs: o.q1, Time: j.TimeOn(o.q1), Shelf: 1}
		default:
			allot[i] = Allotment{Job: j, Procs: o.q2, Time: j.TimeOn(o.q2), Shelf: 2}
		}
	}
	return allot, true
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

// TotalWork sums the work of an allotment set.
func TotalWork(allot []Allotment) float64 {
	var w float64
	for _, a := range allot {
		w += a.Work()
	}
	return w
}

// Shelf1Width sums the widths of shelf-1 allotments.
func Shelf1Width(allot []Allotment) int {
	var w int
	for _, a := range allot {
		if a.Shelf == 1 {
			w += a.Procs
		}
	}
	return w
}

// checkAllotment validates internal invariants (used by tests).
func checkAllotment(allot []Allotment, m int, lambda float64) error {
	for _, a := range allot {
		if a.Time > lambda*(1+1e-9) {
			return fmt.Errorf("moldable: job %d time %v exceeds λ=%v", a.Job.ID, a.Time, lambda)
		}
		if a.Shelf == 2 && a.Time > lambda/2*(1+1e-9) {
			return fmt.Errorf("moldable: shelf-2 job %d time %v exceeds λ/2", a.Job.ID, a.Time)
		}
		if a.Shelf != 1 && a.Shelf != 2 {
			return fmt.Errorf("moldable: job %d on shelf %d", a.Job.ID, a.Shelf)
		}
	}
	if w := Shelf1Width(allot); w > m {
		return fmt.Errorf("moldable: shelf-1 width %d exceeds %d", w, m)
	}
	if tw := TotalWork(allot); tw > lambda*float64(m)*(1+1e-9) {
		return fmt.Errorf("moldable: total work %v exceeds area %v", tw, lambda*float64(m))
	}
	if math.IsNaN(TotalWork(allot)) {
		return fmt.Errorf("moldable: NaN work")
	}
	return nil
}
