// Package batch implements the generic batch framework of Shmoys, Wein
// and Williamson used in §4.2 of the paper: any offline algorithm with
// performance ratio ρ for scheduling independent tasks without release
// dates becomes an online (unknown release dates) algorithm with ratio
// 2ρ by gathering arrivals into successive batches. Combined with the
// MRT 3/2+ε offline algorithm this yields the paper's 3+ε online
// moldable result.
package batch

import (
	"fmt"
	"slices"

	"repro/internal/moldable"
	"repro/internal/sched"
	"repro/internal/workload"
)

// OfflineScheduler schedules a job set on m processors assuming all jobs
// are available at time 0 (release dates ignored). Returned schedules
// must start at or after 0.
type OfflineScheduler func(jobs []*workload.Job, m int) (*sched.Schedule, error)

// MRTOffline adapts the §4.1 MRT algorithm as the offline procedure.
func MRTOffline(eps float64) OfflineScheduler {
	return func(jobs []*workload.Job, m int) (*sched.Schedule, error) {
		res, err := moldable.MRT(jobs, m, eps)
		if err != nil {
			return nil, err
		}
		return res.Schedule, nil
	}
}

// Info describes one executed batch (for experiment reporting).
type Info struct {
	Start    float64
	End      float64
	JobCount int
}

// Result is the outcome of the batch framework.
type Result struct {
	Schedule *sched.Schedule
	Batches  []Info
}

// Online runs the batch framework: batch k collects every job released
// during batch k-1's execution (plus, initially, everything released at
// or before the first release instant) and schedules it with the offline
// algorithm as soon as batch k-1 completes.
func Online(jobs []*workload.Job, m int, offline OfflineScheduler) (*Result, error) {
	if offline == nil {
		return nil, fmt.Errorf("batch: nil offline scheduler")
	}
	pending := append([]*workload.Job(nil), jobs...)
	slices.SortStableFunc(pending, workload.CompareRelease)
	out := &Result{Schedule: sched.New(m)}
	if len(pending) == 0 {
		return out, nil
	}
	clock := pending[0].Release
	idx := 0
	for idx < len(pending) {
		// Gather everything released by the clock.
		var batchJobs []*workload.Job
		for idx < len(pending) && pending[idx].Release <= clock+1e-12 {
			batchJobs = append(batchJobs, pending[idx])
			idx++
		}
		if len(batchJobs) == 0 {
			// Idle until the next arrival.
			clock = pending[idx].Release
			continue
		}
		bs, err := offline(batchJobs, m)
		if err != nil {
			return nil, fmt.Errorf("batch: offline scheduler failed: %w", err)
		}
		if err := bs.Covers(batchJobs); err != nil {
			return nil, fmt.Errorf("batch: offline scheduler dropped jobs: %w", err)
		}
		shifted := bs.Shift(clock)
		if err := out.Schedule.Merge(shifted); err != nil {
			return nil, err
		}
		// The batch boundary is the shifted schedule's own makespan:
		// clock + bs.Makespan() can differ from it by one float rounding,
		// which would overlap the next batch by a hair.
		end := shifted.Makespan()
		out.Batches = append(out.Batches, Info{Start: clock, End: end, JobCount: len(batchJobs)})
		if end <= clock {
			// Zero-length batch cannot happen with positive job times;
			// guard against pathological offline schedulers.
			return nil, fmt.Errorf("batch: batch did not advance the clock at t=%v", clock)
		}
		clock = end
	}
	if err := out.Schedule.Validate(); err != nil {
		return nil, fmt.Errorf("batch: produced invalid schedule: %w", err)
	}
	return out, nil
}

// OnlineMoldable is the paper's §4.2 composition: batches over MRT,
// giving ratio 2(3/2 + ε) = 3 + ε for online moldable Cmax.
func OnlineMoldable(jobs []*workload.Job, m int, eps float64) (*Result, error) {
	return Online(jobs, m, MRTOffline(eps))
}
