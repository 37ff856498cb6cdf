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

// The job-slice entry points as they stood before the cost-summary forms,
// kept as the differential reference for MRTOf, MRTWithAllotOf and the
// list baselines: each prices the jobs and bisects the dual bound itself,
// constructs through referenceConstruct, clones every frozen job and
// rebuilds the baseline schedule.

// referenceMRT is the old MRT (allot referenceSelectAllotments) and
// MRTWithAllot; it also returns the bound its search started from.
func referenceMRT(jobs []*workload.Job, m int, eps float64, allot AllotFunc) (*Result, float64, error) {
	if m <= 0 {
		return nil, 0, fmt.Errorf("moldable: MRT on %d processors", m)
	}
	if eps <= 0 {
		eps = 0.01
	}
	if len(jobs) == 0 {
		return &Result{Schedule: sched.New(m), Lambda: 0}, 0, nil
	}
	costs := workload.Costs(jobs, m)
	for i := range costs {
		if t, _ := costs[i].MinTime(); math.IsInf(t, 0) {
			return nil, 0, fmt.Errorf("moldable: job %d cannot run on %d processors", jobs[i].ID, m)
		}
	}
	lb := lowerbound.CmaxDualOf(costs, m)
	if lb <= 0 {
		return nil, lb, fmt.Errorf("moldable: degenerate lower bound %v", lb)
	}
	res := &Result{}
	hi := lb
	var hiSched *sched.Schedule
	for i := 0; ; i++ {
		if s, ok := referenceConstruct(costs, m, hi, allot); ok {
			hiSched = s
			break
		}
		hi *= 2
		if i > 60 {
			return nil, lb, fmt.Errorf("moldable: no feasible guess found up to %v", hi)
		}
	}
	lo := lb
	res.Lambda = hi
	res.Schedule = hiSched
	for res.Iterations = 0; hi-lo > eps*lo && res.Iterations < 200; res.Iterations++ {
		mid := (lo + hi) / 2
		if s, ok := referenceConstruct(costs, m, mid, allot); ok {
			hi = mid
			res.Lambda = mid
			res.Schedule = s
		} else {
			lo = mid
		}
	}
	if err := res.Schedule.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
		return nil, lb, fmt.Errorf("moldable: produced invalid schedule: %w", err)
	}
	return res, lb, nil
}

// referenceFreeze is the old freeze: one heap clone per job, its table
// narrowed with its range.
func referenceFreeze(costs []workload.Cost, procs func(*workload.Cost) int) ([]*workload.Job, map[int]*workload.Job) {
	frozen := make([]*workload.Job, len(costs))
	orig := make(map[int]*workload.Job, len(costs))
	for i := range costs {
		p := procs(&costs[i])
		j := costs[i].Job
		c := *j
		c.Kind = workload.Rigid
		c.MinProcs, c.MaxProcs = p, p
		if j.Times != nil {
			c.Times = j.Times[p-j.MinProcs:][:1]
		}
		frozen[i] = &c
		orig[j.ID] = j
	}
	return frozen, orig
}

// referenceRebind is the old rebind: a new schedule of the originals.
func referenceRebind(s *sched.Schedule, orig map[int]*workload.Job) *sched.Schedule {
	out := sched.New(s.M)
	for _, a := range s.Allocs {
		a.Job = orig[a.Job.ID]
		out.Add(a)
	}
	return out
}

// referenceList is the old body of the three list baselines.
func referenceList(name string, jobs []*workload.Job, m int, procs func(*workload.Cost) int) (*sched.Schedule, error) {
	frozen, orig := referenceFreeze(workload.Costs(jobs, m), procs)
	s, err := rigid.List(frozen, m, rigid.ByLPT)
	if err != nil {
		return nil, fmt.Errorf("moldable: %s: %w", name, err)
	}
	return referenceRebind(s, orig), nil
}

// referenceMinWorkList is the old MinWorkList.
func referenceMinWorkList(jobs []*workload.Job, m int) (*sched.Schedule, error) {
	return referenceList("MinWorkList", jobs, m, func(c *workload.Cost) int {
		_, p := c.MinWork()
		return p
	})
}

// referenceMaxProcsList is the old MaxProcsList.
func referenceMaxProcsList(jobs []*workload.Job, m int) (*sched.Schedule, error) {
	return referenceList("MaxProcsList", jobs, m, func(c *workload.Cost) int {
		_, p := c.MinTime()
		return p
	})
}

// referenceGammaList is the old GammaList, which bisected its own bound.
func referenceGammaList(jobs []*workload.Job, m int) (*sched.Schedule, error) {
	lb := lowerbound.CmaxDualOf(workload.Costs(jobs, m), m)
	return referenceList("GammaList", jobs, m, func(c *workload.Cost) int {
		if q := c.Gamma(lb); q > 0 {
			return q
		}
		_, p := c.MinWork()
		return p
	})
}
