package moldable

import (
	"math"
	"sort"

	"repro/internal/rigid"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The single-guess construction as it stood before the Builder, kept
// verbatim as the differential reference: a straight-line knapsack with
// its own tables per call, a fresh profile and schedule per attempt, and
// the caller-side eviction loop of the §4.4 batch step. Tests compare
// the Builder against these alloc for alloc; nothing here is product
// code. The only lines added record the work the selection weighed
// against the area (referenceTotalWork).

// referenceTotalWork is the total work the last reference selection
// compared with the area λ·m (NaN if it refused before getting there).
var referenceTotalWork float64

// referenceSelectAllotments is the old SelectAllotments.
func referenceSelectAllotments(costs []workload.Cost, m int, lambda float64) (allot []Allotment, ok bool) {
	referenceTotalWork = math.NaN()
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
	referenceTotalWork = totalWork // the one line that is not the old code
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

// referenceConstruct is the old construct.
func referenceConstruct(costs []workload.Cost, m int, lambda float64, allot AllotFunc) (*sched.Schedule, bool) {
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

// referenceLargestPrefix is the eviction loop bicriteria.maxWeightBatch
// ran over ConstructForDeadline: drop the last job until the rest
// constructs.
func referenceLargestPrefix(costs []workload.Cost, m int, d float64) (*sched.Schedule, int) {
	selected := costs
	for len(selected) > 0 {
		if s, ok := referenceConstruct(selected, m, d, referenceSelectAllotments); ok {
			return s, len(selected)
		}
		selected = selected[:len(selected)-1]
	}
	return nil, 0
}
