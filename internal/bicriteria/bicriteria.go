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
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/lowerbound"
	"repro/internal/moldable"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Batch reports one doubling batch (for traces and experiments).
type Batch struct {
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
	return r.Schedule.SumWeightedCompletion() / r.WCLB
}

// Options tunes the algorithm.
type Options struct {
	// InitialDeadline is the base deadline d. Zero picks the smallest
	// minimal execution time among the jobs (the natural starting scale;
	// see the ablation on this choice).
	InitialDeadline float64
}

// Schedule runs the doubling-batches bi-criteria algorithm on m
// processors. Jobs may carry release dates (the on-line moldable setting
// of §4.4); a job is eligible for a batch only once released by the
// batch's start time.
//
// Each batch is the ACmax procedure of §4.4: among the released jobs
// that can individually meet the deadline D, a subset of (approximately)
// maximum total weight is scheduled within ρ·D ≤ 3D/2. Selection is
// greedy by weight density (weight per unit of minimal work), the
// classic knapsack relaxation: jobs are admitted in density order while
// the area budget D·m holds, then the MRT construction is attempted; on
// failure the least-dense admitted job is evicted and the construction
// retried (moldable.Builder.LargestPrefixForDeadline), which terminates
// because a single feasible job always constructs.
//
// Density is a property of the job alone, so the order is computed once;
// a batch only filters it.
func Schedule(jobs []*workload.Job, m int, opt Options) (*Result, error) {
	return ScheduleOf(workload.Costs(jobs, m), m, opt)
}

// ScheduleOf is Schedule for callers that already hold the jobs' cost
// summaries on m processors, in the jobs' order; it does not write them,
// so cells may share one slice. Its CmaxLB is lowerbound.CmaxOf(costs, m)
// and its WCLB lowerbound.SumWeightedCompletionOf(costs, m), bit for bit.
func ScheduleOf(costs []workload.Cost, m int, opt Options) (*Result, error) {
	if m <= 0 {
		return nil, fmt.Errorf("bicriteria: %d processors", m)
	}
	if d := opt.InitialDeadline; d < 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return nil, fmt.Errorf("bicriteria: initial deadline %v is not a finite non-negative time", d)
	}
	res := &Result{
		Schedule: &sched.Schedule{M: m, Allocs: make([]sched.Alloc, 0, len(costs))},
		CmaxLB:   lowerbound.CmaxOf(costs, m),
		WCLB:     lowerbound.SumWeightedCompletionOf(costs, m),
	}
	if len(costs) == 0 {
		return res, nil
	}
	shortest := math.Inf(1)
	for i := range costs {
		t, _ := costs[i].MinTime()
		if math.IsInf(t, 0) {
			return nil, fmt.Errorf("bicriteria: job %d cannot run on %d processors", costs[i].Job.ID, m)
		}
		if t < shortest {
			shortest = t
		}
	}
	deadline := opt.InitialDeadline
	if deadline == 0 {
		deadline = shortest
	}
	ws := workspaces.Get().(*workspace)
	// The cost positions in release order: order[:released] are those
	// released by the clock, scheduled or not.
	order := ws.order[:0]
	for i := range costs {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return workload.CompareRelease(costs[a].Job, costs[b].Job)
	})
	// pending is the unscheduled jobs in density order: weight / minwork,
	// descending — heavier-per-area jobs first maximizes batch weight
	// under the area budget D·m — then ID, then release position, so the
	// order is total and filtering it equals sorting the filtered.
	pending := ws.pending[:0]
	for i, k := range order {
		w, _ := costs[k].MinWork()
		t, _ := costs[k].MinTime()
		j := costs[k].Job
		pending = append(pending, candidate{pos: i, id: j.ID, density: density(j.Weight, w), work: w, minTime: t})
	}
	slices.SortFunc(pending, func(a, b candidate) int {
		if a.density != b.density {
			if a.density > b.density {
				return -1
			}
			return 1
		}
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.pos, b.pos))
	})

	var (
		builder  = &ws.builder
		admitted = ws.admitted[:0] // indices into pending, in density order
		selected = ws.selected[:0] // their cost summaries, the builder's input
		clock    float64
		released int
	)
	defer func() {
		ws.order, ws.pending, ws.admitted, ws.selected = order, pending, admitted, selected
		workspaces.Put(ws)
	}()
	for len(pending) > 0 {
		// The clock never moves back, so the released prefix only grows.
		for released < len(costs) && costs[order[released]].Job.Release <= clock+1e-12 {
			released++
		}
		if released == len(costs)-len(pending) {
			// Every released job is scheduled: idle until the next
			// release; the deadline keeps its value (batches only count
			// when they execute work).
			clock = costs[order[released]].Job.Release
			continue
		}
		// Greedy admission under the area budget, over the released jobs
		// that can individually meet the deadline.
		budget := deadline * float64(m)
		var used float64
		admitted, selected = admitted[:0], selected[:0]
		for i, c := range pending {
			if c.pos < released && c.minTime <= deadline && used+c.work <= budget {
				admitted = append(admitted, i)
				selected = append(selected, costs[order[c.pos]])
				used += c.work
			}
		}
		// Construct, evicting from the tail on failure.
		bs, n := builder.LargestPrefixForDeadline(selected, m, deadline)
		if n == 0 {
			// Nothing fits the current deadline: double and retry. The
			// geometric growth guarantees progress since every job is
			// runnable on the platform — unless the deadline cannot grow
			// (zero) or has left the finite range.
			deadline *= 2
			if !(deadline > 0) || math.IsInf(deadline, 0) {
				return nil, fmt.Errorf("bicriteria: no batch fits any finite deadline (reached %v with %d jobs unscheduled)",
					deadline, len(pending))
			}
			continue
		}
		for i := range bs.Allocs {
			bs.Allocs[i].Start += clock // the builder rewrites it next batch
		}
		if err := res.Schedule.Merge(bs); err != nil {
			return nil, err
		}
		end := bs.Makespan()
		res.Batches = append(res.Batches, Batch{
			Deadline: deadline, Start: clock, End: end,
			JobCount: n,
		})
		// Remove the scheduled jobs from pending, keeping its order.
		kept := admitted[0]
		for i, next := admitted[0], 0; i < len(pending); i++ {
			if next < n && admitted[next] == i {
				next++
				continue
			}
			pending[kept] = pending[i]
			kept++
		}
		pending = pending[:kept]
		clock = math.Max(end, clock)
		deadline *= 2
	}
	if err := res.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("bicriteria: produced invalid schedule: %w", err)
	}
	return res, nil
}

// workspace is ScheduleOf's scratch: the construction Builder and the
// buffers of the release order, the density order and the batch under
// construction. Each batch schedule is merged, which copies it, before
// the Builder is used again or the workspace put back.
type workspace struct {
	builder  moldable.Builder
	order    []int
	pending  []candidate
	admitted []int
	selected []workload.Cost
}

// workspaces holds idle workspaces, so that one schedule reuses the
// buffers an earlier one grew.
var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// candidate is the thin sort key of one job: what a batch needs to
// filter and admit it without touching its cost summary.
type candidate struct {
	pos, id                int // position in release order, job ID
	density, work, minTime float64
}

func density(weight, work float64) float64 {
	if work <= 0 {
		return math.Inf(1)
	}
	return weight / work
}

// TheoreticalRatio returns the §4.4 guarantee 4ρ for both criteria.
func TheoreticalRatio(rho float64) float64 { return 4 * rho }
