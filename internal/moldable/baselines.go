package moldable

import (
	"fmt"

	"repro/internal/rigid"
	"repro/internal/sched"
	"repro/internal/workload"
)

// freeze returns rigid copies of the jobs with the given per-job
// processor counts, suitable for the rigid-job policies, or MRT's error
// when a job has no legal count on m processors (procs answers 0 then).
// A copy shares its job's time table: nothing writes a table. A table is
// indexed from MinProcs, so pinning the copy at p narrows its table with
// the range, to the one entry of p.
func freeze(costs []workload.Cost, m int, procs func(*workload.Cost) int) ([]*workload.Job, map[int]*workload.Job, error) {
	frozen := make([]*workload.Job, len(costs))
	copies := make([]workload.Job, len(costs))
	orig := make(map[int]*workload.Job, len(costs))
	for i := range costs {
		p := procs(&costs[i])
		j := costs[i].Job
		if p == 0 {
			return nil, nil, fmt.Errorf("moldable: job %d cannot run on %d processors", j.ID, m)
		}
		c := &copies[i]
		*c = *j
		c.Kind = workload.Rigid
		c.MinProcs, c.MaxProcs = p, p
		if j.Times != nil {
			c.Times = j.Times[p-j.MinProcs:][:1]
		}
		frozen[i] = c
		orig[j.ID] = j
	}
	return frozen, orig, nil
}

// rebind maps a schedule over frozen clones back to the original jobs so
// callers see their own pointers.
func rebind(s *sched.Schedule, orig map[int]*workload.Job) *sched.Schedule {
	for i := range s.Allocs {
		s.Allocs[i].Job = orig[s.Allocs[i].Job.ID]
	}
	return s
}

// MinWorkListOf is the communication-shy baseline over the jobs' cost
// summaries on m processors: every job takes its minimal-work allocation
// (usually sequential) and the resulting rigid jobs are LPT
// list-scheduled. It wastes no work but ignores the critical path, so
// long sequential jobs dominate its makespan.
func MinWorkListOf(costs []workload.Cost, m int) (*sched.Schedule, error) {
	frozen, orig, err := freeze(costs, m, func(c *workload.Cost) int {
		_, p := c.MinWork()
		return p
	})
	if err != nil {
		return nil, err
	}
	s, err := rigid.List(frozen, m, rigid.ByLPT)
	if err != nil {
		return nil, fmt.Errorf("moldable: MinWorkList: %w", err)
	}
	return rebind(s, orig), nil
}

// MaxProcsListOf is the greedy-parallel baseline over the jobs' cost
// summaries on m processors: every job takes its fastest allocation
// (MaxProcs capped at m) and the rigid jobs are LPT list-scheduled. It
// minimizes per-job time but inflates work, so it loses when speedups
// are sublinear — the trade-off the MRT knapsack balances.
func MaxProcsListOf(costs []workload.Cost, m int) (*sched.Schedule, error) {
	frozen, orig, err := freeze(costs, m, func(c *workload.Cost) int {
		_, p := c.MinTime()
		return p
	})
	if err != nil {
		return nil, err
	}
	s, err := rigid.List(frozen, m, rigid.ByLPT)
	if err != nil {
		return nil, fmt.Errorf("moldable: MaxProcsList: %w", err)
	}
	return rebind(s, orig), nil
}

// GammaListOf is the one-shot dual baseline over the jobs' cost
// summaries on m processors and their dual bound lb =
// lowerbound.CmaxDualOf(costs, m): jobs take their canonical allotment
// γ(j, lb) (falling back to the minimal-work allocation when even
// γ(j, lb) does not exist) and are LPT list-scheduled. One construction,
// no binary search — the natural middle ground between the naive
// baselines and full MRT.
func GammaListOf(costs []workload.Cost, m int, lb float64) (*sched.Schedule, error) {
	frozen, orig, err := freeze(costs, m, func(c *workload.Cost) int {
		if q := c.Gamma(lb); q > 0 {
			return q
		}
		_, p := c.MinWork()
		return p
	})
	if err != nil {
		return nil, err
	}
	s, err := rigid.List(frozen, m, rigid.ByLPT)
	if err != nil {
		return nil, fmt.Errorf("moldable: GammaList: %w", err)
	}
	return rebind(s, orig), nil
}
