// Package bicriteria implements the §4.4 family of algorithms: an ad hoc
// bi-criterion scheduler built from a makespan procedure ACmax run in
// batches of doubling deadlines (d, 2d, 4d, ...), following Hall, Schulz,
// Shmoys and Wein as adapted by the authors in [10]. Each batch schedules
// a maximum-weight subset of the pending jobs within ρ·2^i·d; the result
// is simultaneously 4ρ-competitive for Cmax and for ΣωiCi.
//
// This is the algorithm whose simulation produces Figure 2 of the paper
// (100-machine cluster, parallel and non-parallel jobs, both criteria
// reported as ratios to the optimum estimate).
package bicriteria

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lowerbound"
	"repro/internal/moldable"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Batch reports one doubling batch (for traces and experiments).
type Batch struct {
	Index    int
	Deadline float64 // the 2^i·d deadline driving selection
	Start    float64
	End      float64
	JobCount int
}

// Result is the outcome of the doubling algorithm.
type Result struct {
	Schedule *sched.Schedule
	Batches  []Batch
	// CmaxLB and WCLB are the instance lower bounds used for ratios.
	CmaxLB, WCLB float64
}

// CmaxRatio returns makespan / lower bound.
func (r *Result) CmaxRatio() float64 {
	if r.CmaxLB <= 0 {
		return 1
	}
	return r.Schedule.Makespan() / r.CmaxLB
}

// WCRatio returns ΣwC / lower bound (the "WiCi ratio" axis of Figure 2).
func (r *Result) WCRatio() float64 {
	if r.WCLB <= 0 {
		return 1
	}
	return r.Schedule.Report().SumWeightedCompletion / r.WCLB
}

// Options tunes the algorithm.
type Options struct {
	// InitialDeadline is the base deadline d. Zero picks the smallest
	// minimal execution time among the jobs (the natural starting scale;
	// see the ablation on this choice).
	InitialDeadline float64
	// Rho is the performance ratio of the deadline procedure (3/2 for
	// the MRT construction; exposed for the theoretical 4ρ checks).
	Rho float64
}

// Schedule runs the doubling-batches bi-criteria algorithm on m
// processors. Jobs may carry release dates (the on-line moldable setting
// of §4.4); a job is eligible for a batch only once released by the
// batch's start time.
func Schedule(jobs []*workload.Job, m int, opt Options) (*Result, error) {
	if m <= 0 {
		return nil, fmt.Errorf("bicriteria: %d processors", m)
	}
	if opt.Rho == 0 {
		opt.Rho = moldable.Rho
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
	batchIdx := 0
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
		selected, bs := maxWeightBatch(pending[:released], m, deadline)
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
			Index: batchIdx, Deadline: deadline, Start: clock, End: end,
			JobCount: len(selected),
		})
		batchIdx++
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

// maxWeightBatch implements the ACmax procedure of §4.4: given a deadline
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
func maxWeightBatch(costs []workload.Cost, m int, deadline float64) ([]int, *sched.Schedule) {
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
		if s, ok := moldable.ConstructForDeadline(selected, m, deadline); ok {
			return indices[:len(selected)], s
		}
		selected = selected[:len(selected)-1]
	}
	return nil, nil
}

func density(weight, work float64) float64 {
	if work <= 0 {
		return math.Inf(1)
	}
	return weight / work
}

// TheoreticalRatio returns the §4.4 guarantee 4ρ for both criteria.
func TheoreticalRatio(rho float64) float64 { return 4 * rho }
