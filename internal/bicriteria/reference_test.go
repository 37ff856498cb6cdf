package bicriteria

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lowerbound"
	"repro/internal/moldable"
	"repro/internal/rigid"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The doubling scheduler as it stood before the once-per-batch rewrite,
// kept verbatim as the differential reference: three cost builds, a
// reflective stable sort of every candidate per batch, and an eviction
// loop that re-runs the whole single-guess construction — copied here
// from internal/moldable's own reference so that nothing below shares
// code with the Builder it is compared against. Nothing here is product
// code.

// referenceSchedule is the old Schedule.
func referenceSchedule(jobs []*workload.Job, m int, opt Options) (*Result, error) {
	if m <= 0 {
		return nil, fmt.Errorf("bicriteria: %d processors", m)
	}
	res := &Result{
		Schedule: sched.New(m),
		CmaxLB:   lowerbound.Cmax(jobs, m),
		WCLB:     lowerbound.SumWeightedCompletion(jobs, m),
	}
	if len(jobs) == 0 {
		return res, nil
	}
	// pending holds the cost summaries of the unscheduled jobs in release
	// order; pending[:released] are those released by the clock.
	pending := workload.Costs(jobs, m)
	shortest := math.Inf(1)
	for i := range pending {
		t, _ := pending[i].MinTime()
		if math.IsInf(t, 0) {
			return nil, fmt.Errorf("bicriteria: job %d cannot run on %d processors", jobs[i].ID, m)
		}
		if t < shortest {
			shortest = t
		}
	}
	d := opt.InitialDeadline
	if d <= 0 {
		d = shortest
	}
	sort.SliceStable(pending, func(i, k int) bool {
		a, b := pending[i].Job, pending[k].Job
		if a.Release != b.Release {
			return a.Release < b.Release
		}
		return a.ID < b.ID
	})

	clock := 0.0
	deadline := d
	released := 0
	taken := make([]bool, len(pending))
	for len(pending) > 0 {
		// The clock never moves back, so the released prefix only grows.
		for released < len(pending) && pending[released].Job.Release <= clock+1e-12 {
			released++
		}
		if released == 0 {
			// Idle until the next release; the deadline keeps its value
			// (batches only count when they execute work).
			clock = pending[0].Job.Release
			continue
		}
		selected, bs := referenceMaxWeightBatch(pending[:released], m, deadline)
		if len(selected) == 0 {
			// Nothing fits the current deadline: double and retry. The
			// geometric growth guarantees progress since every job is
			// runnable on the platform.
			deadline *= 2
			continue
		}
		shifted := bs.Shift(clock)
		if err := res.Schedule.Merge(shifted); err != nil {
			return nil, err
		}
		end := shifted.Makespan()
		res.Batches = append(res.Batches, Batch{
			Deadline: deadline, Start: clock, End: end,
			JobCount: len(selected),
		})
		// Remove the scheduled jobs from pending, keeping its order.
		for _, i := range selected {
			taken[i] = true
		}
		kept := 0
		for i := range pending {
			if taken[i] {
				taken[i] = false
				continue
			}
			pending[kept] = pending[i]
			kept++
		}
		pending = pending[:kept]
		released -= len(selected)
		clock = math.Max(end, clock)
		deadline *= 2
	}
	if err := res.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("bicriteria: produced invalid schedule: %w", err)
	}
	return res, nil
}

// referenceMaxWeightBatch is the old maxWeightBatch. It
// implements the ACmax procedure of §4.4: given a deadline
// D and the cost summaries of the eligible jobs, it returns the indices
// of a subset of (approximately) maximum total weight together with a
// schedule of that subset of length at most ρ·D ≤ 3D/2.
//
// Selection is greedy by weight density (weight per unit of minimal
// work), the classic knapsack relaxation: jobs are admitted while the
// dual-feasibility test for D holds, then the MRT construction is
// attempted; on failure the least-dense selected job is evicted and the
// construction retried, which terminates because a single feasible job
// always constructs.
func referenceMaxWeightBatch(costs []workload.Cost, m int, deadline float64) ([]int, *sched.Schedule) {
	// Jobs that cannot individually meet the deadline are out.
	type cand struct {
		idx, id       int
		density, work float64
	}
	var cands []cand
	for i := range costs {
		if t, _ := costs[i].MinTime(); t <= deadline {
			j := costs[i].Job
			w, _ := costs[i].MinWork()
			cands = append(cands, cand{idx: i, id: j.ID, density: density(j.Weight, w), work: w})
		}
	}
	if len(cands) == 0 {
		return nil, nil
	}
	// Density order: weight / minwork, descending. Heavier-per-area jobs
	// first maximizes batch weight under the area budget D·m.
	sort.SliceStable(cands, func(a, b int) bool {
		if cands[a].density != cands[b].density {
			return cands[a].density > cands[b].density
		}
		return cands[a].id < cands[b].id
	})
	// Greedy admission under the area budget.
	budget := deadline * float64(m)
	var indices []int
	var selected []workload.Cost
	var used float64
	for _, c := range cands {
		if used+c.work <= budget {
			indices = append(indices, c.idx)
			selected = append(selected, costs[c.idx])
			used += c.work
		}
	}
	// Construct, evicting from the tail on failure.
	for len(selected) > 0 {
		if s, ok := referenceConstruct(selected, m, deadline, referenceSelectAllotments); ok {
			return indices[:len(selected)], s
		}
		selected = selected[:len(selected)-1]
	}
	return nil, nil
}

// referenceSelectAllotments is the old SelectAllotments.
func referenceSelectAllotments(costs []workload.Cost, m int, lambda float64) (allot []moldable.Allotment, ok bool) {
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

	allot = make([]moldable.Allotment, len(costs))
	for i, o := range opts {
		j := costs[i].Job
		switch {
		case o.q2 == 0 || o.shelf1:
			allot[i] = moldable.Allotment{Job: j, Procs: o.q1, Time: j.TimeOn(o.q1), Shelf: 1}
		default:
			allot[i] = moldable.Allotment{Job: j, Procs: o.q2, Time: j.TimeOn(o.q2), Shelf: 2}
		}
	}
	return allot, true
}

// referenceConstruct is the old construct.
func referenceConstruct(costs []workload.Cost, m int, lambda float64, allot moldable.AllotFunc) (*sched.Schedule, bool) {
	al, ok := allot(costs, m, lambda)
	if !ok {
		return nil, false
	}
	var shelf1, shelf2 []moldable.Allotment
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
