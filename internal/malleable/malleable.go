// Package malleable implements scheduling for the third Parallel Task
// class of §2.2 — malleable jobs, whose processor allocation may change
// during execution. The paper leaves malleability as future work ("in
// the near future, moldability and malleability should be used more and
// more"; "we will not consider malleability here"); this package
// implements it as the natural extension: the classical EQUIPARTITION
// policy, which redistributes the machine equally among active jobs at
// every arrival and completion, plus a weight-proportional variant.
//
// Execution semantics: a malleable job with profile TimeOn(p) executes
// at rate 1/TimeOn(p) "job fractions per second" while allocated p
// processors; reallocation is free (the penalty model already folds
// redistribution costs into the profile, exactly as §4 folds
// communications). Jobs whose MinProcs cannot be granted wait in FCFS
// order.
package malleable

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// Share selects how processors are split among active jobs.
type Share int

const (
	// Equi gives every active job an equal share (EQUIPARTITION).
	Equi Share = iota
	// WeightProportional shares in proportion to job weights (heavier
	// ΣωiCi jobs drain faster).
	WeightProportional
)

// Result is the outcome of a malleable simulation.
type Result struct {
	Completions []metrics.Completion
	// Reallocations counts allocation changes across all jobs (the cost
	// a runtime system would pay in migrations).
	Reallocations int
	// Makespan is the completion time of the last job.
	Makespan float64
}

type activeJob struct {
	job       *workload.Job
	remaining float64 // fraction of the job left, in [0, 1]
	procs     int
	newProcs  int // scratch for the reallocation round
	start     float64
	started   bool
}

// Schedule simulates the malleable policy on m processors. Jobs may
// carry release dates; admission is FCFS on the MinProcs budget and the
// surplus is re-dealt at every arrival and completion.
func Schedule(jobs []*workload.Job, m int, share Share) (*Result, error) {
	if m <= 0 {
		return nil, fmt.Errorf("malleable: %d processors", m)
	}
	for _, j := range jobs {
		if j.MinProcs > m {
			return nil, fmt.Errorf("malleable: job %d needs %d > %d procs", j.ID, j.MinProcs, m)
		}
	}
	pending := append([]*workload.Job(nil), jobs...)
	slices.SortStableFunc(pending, workload.CompareRelease)

	res := &Result{}
	var active []*activeJob
	var waiting []*activeJob // admitted FCFS when MinProcs fits
	clock := 0.0
	idx := 0
	const tiny = 1e-12

	admit := func() {
		// Move waiting jobs into the active set while their minimum
		// allocation fits next to the other actives' minimums.
		minSum := 0
		for _, a := range active {
			minSum += a.job.MinProcs
		}
		for len(waiting) > 0 && minSum+waiting[0].job.MinProcs <= m {
			a := waiting[0]
			waiting = waiting[1:]
			minSum += a.job.MinProcs
			active = append(active, a)
		}
	}

	reallocate := func() {
		// Everyone gets MinProcs, then the surplus is dealt per the
		// share rule, capped by MaxProcs (and m).
		surplus := m
		for _, a := range active {
			a.newProcs = a.job.MinProcs
			surplus -= a.job.MinProcs
		}
		if surplus < 0 {
			panic("malleable: admission violated the MinProcs budget")
		}
		switch share {
		case WeightProportional:
			// Largest-remainder apportionment by weight.
			var wsum float64
			for _, a := range active {
				wsum += math.Max(a.job.Weight, tiny)
			}
			type frac struct {
				a *activeJob
				f float64
			}
			var fr []frac
			used := 0
			for _, a := range active {
				want := float64(surplus) * math.Max(a.job.Weight, tiny) / wsum
				grant := int(want)
				room := a.job.MaxProcs - a.newProcs
				if grant > room {
					grant = room
				}
				a.newProcs += grant
				used += grant
				fr = append(fr, frac{a, want - float64(int(want))})
			}
			surplus -= used
			slices.SortStableFunc(fr, func(a, b frac) int {
				switch {
				case a.f > b.f:
					return -1
				case a.f < b.f:
					return 1
				}
				return 0
			})
			for _, f := range fr {
				if surplus == 0 {
					break
				}
				if f.a.newProcs < f.a.job.MaxProcs {
					f.a.newProcs++
					surplus--
				}
			}
		default: // Equi: round-robin one processor at a time
			for surplus > 0 {
				granted := false
				for _, a := range active {
					if surplus == 0 {
						break
					}
					if a.newProcs < a.job.MaxProcs {
						a.newProcs++
						surplus--
						granted = true
					}
				}
				if !granted {
					break // everyone saturated
				}
			}
		}
		for _, a := range active {
			if a.newProcs != a.procs {
				if a.started {
					res.Reallocations++
				}
				a.procs = a.newProcs
			}
			if !a.started {
				a.started = true
				a.start = clock
			}
		}
	}

	for idx < len(pending) || len(active) > 0 || len(waiting) > 0 {
		// Admit and (re)allocate.
		admit()
		if len(active) == 0 {
			if idx >= len(pending) {
				return nil, fmt.Errorf("malleable: %d jobs stuck waiting", len(waiting))
			}
			clock = math.Max(clock, pending[idx].Release)
			waiting = append(waiting, &activeJob{job: pending[idx], remaining: 1})
			idx++
			continue
		}
		reallocate()

		// Next event: earliest finish at current rates, or next arrival.
		nextFinish := math.Inf(1)
		for _, a := range active {
			if a.procs <= 0 {
				continue
			}
			if f := clock + a.remaining*a.job.TimeOn(a.procs); f < nextFinish {
				nextFinish = f
			}
		}
		nextArrival := math.Inf(1)
		if idx < len(pending) {
			nextArrival = math.Max(pending[idx].Release, clock)
		}
		next := math.Min(nextFinish, nextArrival)
		if math.IsInf(next, 1) {
			return nil, fmt.Errorf("malleable: no progress at t=%v", clock)
		}
		dt := next - clock

		// Integrate remaining fractions.
		if dt > 0 {
			for _, a := range active {
				if a.procs > 0 {
					a.remaining -= dt / a.job.TimeOn(a.procs)
				}
			}
			clock = next
		}

		// Absorb the arrival, if that was the event.
		if nextArrival <= nextFinish && idx < len(pending) && pending[idx].Release <= clock+tiny {
			waiting = append(waiting, &activeJob{job: pending[idx], remaining: 1})
			idx++
		}

		// Retire finished jobs.
		var still []*activeJob
		for _, a := range active {
			if a.remaining <= 1e-9 {
				res.Completions = append(res.Completions, metrics.Completion{
					Job: a.job, Start: a.start, End: clock, Procs: a.procs,
				})
				if clock > res.Makespan {
					res.Makespan = clock
				}
			} else {
				still = append(still, a)
			}
		}
		active = still
	}
	if len(res.Completions) != len(jobs) {
		return nil, fmt.Errorf("malleable: %d of %d jobs completed", len(res.Completions), len(jobs))
	}
	return res, nil
}
