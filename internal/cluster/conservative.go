package cluster

import (
	"slices"

	"repro/internal/rigid"
	"repro/internal/workload"
)

// ConservativePolicy is online conservative backfilling: every queued
// job holds a reservation in a plan built on top of the running set, and
// a job starts when its planned start equals the current time. Unlike
// EASY, no queued job can ever be delayed by a later submission — the
// §5.2 variant the paper name-checks for hole-filling ("conservative
// backfilling").
//
// The policy value itself holds no state; the plan travels in View.Plan
// and is kept from one decision to the next. A decision trims the plan
// to the current time, reserves a slot for only the jobs appended to the
// queue since the previous decision, and emits the planned jobs that are
// due — one reservation per arrival rather than one per queued job per
// event. Planning the whole queue again at every event would change
// nothing, because:
//
//  1. cluster.Sim runs a started job for exactly the duration the plan
//     reserved (run.end = now + TimeOn/Speed: there is no estimate that
//     the actual runtime could undercut), so nothing finishes early and
//     no hole opens that the plan did not already know about;
//  2. a planned job therefore starts exactly at its planned start, and
//     its real reservation equals the planned one bit for bit;
//  3. so the profile a fresh plan would start from — running jobs only —
//     plus the reservations of the jobs ahead in the queue is the same
//     function of time the job was planned against, and the earliest
//     slot in it is the one the job already holds.
//
// That stops being true the day runtimes diverge from the estimates the
// plan reserves: an early finish would then have to invalidate the plan
// (compression), the way capacity changes do today.
//
// Whatever the argument misses, Decide re-checks: the plan is discarded
// and built again from the view — the same code, started empty — when
// the planned jobs are no longer a pointer-equal prefix of v.Queue (the
// queue was edited), when a job the last decision started is still
// queued (the start was refused), when a planned start lies in the past,
// or after a start that was due only within the 1e-12 tolerance and not
// exactly (a reservation ending a hair after now).
type ConservativePolicy struct{}

// Name implements Policy.
func (ConservativePolicy) Name() string { return "conservative" }

// Plan is a conservative-backfilling schedule carried across decisions:
// an availability profile holding the running jobs' and the planned
// jobs' reservations, and the planned prefix of the waiting queue with
// its start times. The zero value is an empty, invalid plan. A Plan
// belongs to one evolving queue (one Sim); only ConservativePolicy
// reads or writes it, and its owner calls Invalidate when the capacity
// behind it changes. Other edits of the queue need no call, but for the
// removal of a job the last decision started (a steal after a refused
// start): a decision keeps the plan only while its jobs are still the
// head of the queue and the jobs the last decision started have left it
// (holds), which such a removal fools.
type Plan struct {
	// profile is nil while the plan is invalid.
	profile *rigid.Profile
	jobs    []*workload.Job
	starts  []float64
	// due holds the jobs the last decision started. Their reservations
	// are in profile as if they ran; one of them still queued at the next
	// decision means its start was refused.
	due []*workload.Job
}

// Invalidate discards the plan; the next decision plans the whole queue
// again from the view it is given.
func (pl *Plan) Invalidate() {
	pl.profile.Recycle()
	pl.profile = nil
	clear(pl.jobs)
	pl.jobs, pl.starts, pl.due = pl.jobs[:0], pl.starts[:0], pl.due[:0]
}

// holds reports whether the plan can be extended at v: it exists, does
// not start in v's future, its jobs are still the head of the queue in
// order, none of them was due before now, and every job the last
// decision started has left the queue. The queue keeps its order, so a
// refused job either breaks the prefix or is the first job behind it.
func (pl *Plan) holds(v View) bool {
	n := len(pl.jobs)
	if pl.profile == nil || pl.profile.Start() > v.Now || n > len(v.Queue) {
		return false
	}
	for i, j := range pl.jobs {
		if v.Queue[i] != j || pl.starts[i] < v.Now {
			return false
		}
	}
	return n == len(v.Queue) || !slices.Contains(pl.due, v.Queue[n])
}

// Decide implements Policy.
func (ConservativePolicy) Decide(v View) []Decision {
	pl := v.Plan
	if !pl.holds(v) {
		pl.Invalidate()
	}
	if len(v.Queue) == 0 {
		return nil
	}
	if pl.profile == nil {
		pl.profile = v.Profile().Clone()
	}
	pl.profile.TrimBefore(v.Now)

	// exact stays true while the plan is worth keeping: every queued job
	// planned, every due job due exactly now.
	exact := true
	// The planned jobs are the head of the queue up to the first job that
	// could not be planned: a due job's index in pl.jobs is its index in
	// v.Queue below known, and unknown from there on.
	known := len(v.Queue)
	arrived := v.Queue[len(pl.jobs):]
	pl.jobs = slices.Grow(pl.jobs, len(arrived))
	pl.starts = slices.Grow(pl.starts, len(arrived))
	for _, j := range arrived {
		p := procsFor(j)
		dur := v.Duration(j, p)
		start, err := pl.profile.EarliestSlot(v.Now, dur, p)
		if err == nil {
			err = pl.profile.Reserve(start, dur, p)
		}
		if err != nil {
			// Wider than the machine; unreachable via Submit. The job is
			// skipped and the rest planned as if it were not queued.
			exact = false
			known = min(known, len(pl.jobs))
			continue
		}
		pl.jobs = append(pl.jobs, j)
		pl.starts = append(pl.starts, start)
	}

	out := v.Scratch
	pl.due = pl.due[:0]
	keep := 0
	for i, j := range pl.jobs {
		start := pl.starts[i]
		if start <= v.Now+1e-12 {
			d := Decision{Job: j, Procs: procsFor(j)}
			if i < known {
				d.at = i + 1
			}
			out = append(out, d)
			pl.due = append(pl.due, j)
			exact = exact && start == v.Now
			continue
		}
		pl.jobs[keep], pl.starts[keep] = j, start
		keep++
	}
	clear(pl.jobs[keep:])
	pl.jobs, pl.starts = pl.jobs[:keep], pl.starts[:keep]
	if !exact {
		pl.Invalidate()
	}
	return out
}

// compile-time interface checks for all shipped policies.
var (
	_ Policy = FCFSPolicy{}
	_ Policy = EASYPolicy{}
	_ Policy = GreedyFitPolicy{}
	_ Policy = ConservativePolicy{}
)
