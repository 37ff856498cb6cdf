package moldable

import (
	"fmt"

	"repro/internal/rigid"
	"repro/internal/sched"
	"repro/internal/workload"
)

// listOf pins each job at the width procs picks from its summary and
// LPT list-schedules the jobs at those widths, or returns MRT's error
// when a job has no legal width on m processors (procs answers 0 then).
// A width is a scheduling decision, not part of the job, so the
// allocations name the caller's own jobs.
func listOf(name string, costs []workload.Cost, m int, procs func(*workload.Cost) int) (*sched.Schedule, error) {
	jobs := make([]*workload.Job, len(costs))
	widths := make([]int, len(costs))
	for i := range costs {
		jobs[i], widths[i] = costs[i].Job, procs(&costs[i])
		if widths[i] == 0 {
			return nil, fmt.Errorf("moldable: job %d cannot run on %d processors", jobs[i].ID, m)
		}
	}
	s, err := rigid.List(jobs, widths, m, rigid.ByLPT)
	if err != nil {
		return nil, fmt.Errorf("moldable: %s: %w", name, err)
	}
	return s, nil
}

// MinWorkListOf is the communication-shy baseline over the jobs' cost
// summaries on m processors: every job takes its minimal-work allocation
// (usually sequential) and the jobs are LPT list-scheduled at those
// widths. It wastes no work but ignores the critical path, so
// long sequential jobs dominate its makespan.
func MinWorkListOf(costs []workload.Cost, m int) (*sched.Schedule, error) {
	return listOf("MinWorkList", costs, m, func(c *workload.Cost) int {
		_, p := c.MinWork()
		return p
	})
}

// MaxProcsListOf is the greedy-parallel baseline over the jobs' cost
// summaries on m processors: every job takes its fastest allocation
// (MaxProcs capped at m) and the jobs are LPT list-scheduled at those
// widths. It
// minimizes per-job time but inflates work, so it loses when speedups
// are sublinear — the trade-off the MRT knapsack balances.
func MaxProcsListOf(costs []workload.Cost, m int) (*sched.Schedule, error) {
	return listOf("MaxProcsList", costs, m, func(c *workload.Cost) int {
		_, p := c.MinTime()
		return p
	})
}

// GammaListOf is the one-shot dual baseline over the jobs' cost
// summaries on m processors and their dual bound lb =
// lowerbound.CmaxDualOf(costs, m): jobs take their canonical allotment
// γ(j, lb) (falling back to the minimal-work allocation when even
// γ(j, lb) does not exist) and are LPT list-scheduled. One construction,
// no binary search — the natural middle ground between the naive
// baselines and full MRT.
func GammaListOf(costs []workload.Cost, m int, lb float64) (*sched.Schedule, error) {
	return listOf("GammaList", costs, m, func(c *workload.Cost) int {
		if q := c.Gamma(lb); q > 0 {
			return q
		}
		_, p := c.MinWork()
		return p
	})
}
