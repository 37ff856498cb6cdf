package cluster

import (
	"slices"

	"repro/internal/rigid"
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
// queue since the previous decision, and pops the planned jobs that are
// due off the plan's heap — one reservation per arrival rather than one
// per queued job per event, and no walk over the jobs still planned.
// Planning the whole queue again at every event would change nothing,
// because:
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
// and built again from the view — the same code, started empty — when a
// job the last decision started is still queued (the start was refused),
// when a planned start lies in the past, or after a start that was due
// only within the 1e-12 tolerance and not exactly (a reservation ending
// a hair after now). Every other edit of the queue the plan cannot see is
// the Sim's to report (see View.Plan).
type ConservativePolicy struct{}

// Name implements Policy.
func (ConservativePolicy) Name() string { return "conservative" }

// Plan is a conservative-backfilling schedule carried across decisions:
// an availability profile holding the running jobs' and the planned
// jobs' reservations, and a min-heap of the planned jobs on (planned
// start, slot number), so the jobs due now are the ones on top. A job is
// named by its slot number, which the Sim renames and frees with the
// queue's (see Sim.tidy); the jobs planned are the queued jobs numbered
// below end, and a decision plans those numbered from end on. The zero
// value is an empty, invalid plan.
//
// A Plan belongs to one evolving queue (one Sim); only ConservativePolicy
// reads or writes it, and its owner calls Invalidate when the capacity
// behind it changes and whenever a planned job leaves the queue without
// the plan having found it due: a steal, or a start whose decision names
// no slot (see View.Plan). A decision keeps the plan while it exists, does
// not start in the decision's future, plans nothing before now (the heap's
// top), and the jobs the last decision found due have all left the queue
// (holds).
type Plan struct {
	// profile is nil while the plan is invalid.
	profile *rigid.Profile
	// heap holds the planned jobs still queued: every job queued in a slot
	// numbered below end, but for the due ones.
	heap []planned
	end  int
	// due holds, sorted, the slot numbers of the jobs the last decision
	// started. Their reservations are in profile as if they ran; one of
	// them still queued at the next decision means its start was refused.
	due []int
}

// planned is a job of the plan: its slot number and planned start.
type planned struct {
	start float64
	slot  int
}

// before orders the plan's heap: by planned start, then slot number.
func (a planned) before(b planned) bool {
	return a.start < b.start || a.start == b.start && a.slot < b.slot
}

// push adds e to the heap.
func (pl *Plan) push(e planned) {
	h := append(pl.heap, e)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].before(h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	pl.heap = h
}

// pop removes and returns the top of the heap, which must not be empty.
func (pl *Plan) pop() planned {
	h := pl.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	pl.heap = h
	return top
}

// Invalidate discards the plan; the next decision plans the whole queue
// again from the view it is given.
func (pl *Plan) Invalidate() {
	pl.profile.Recycle()
	pl.profile = nil
	pl.heap, pl.due, pl.end = pl.heap[:0], pl.due[:0], 0
}

// forget drops the slot numbers from end on, which a tail trim freed.
func (pl *Plan) forget(end int) {
	i, _ := slices.BinarySearch(pl.due, end)
	pl.due, pl.end = pl.due[:i], min(pl.end, end)
}

// rename gives each planned job, and each due job still queued, the
// number q's last compaction gave its slot (in order: the heap holds).
func (pl *Plan) rename(q *waitQueue) {
	for i := range pl.heap {
		pl.heap[i].slot = q.renamed(pl.heap[i].slot)
	}
	due := pl.due[:0]
	for _, n := range pl.due {
		if m := q.renamed(n); m != q.renamed(n+1) {
			due = append(due, m)
		}
	}
	pl.due, pl.end = due, q.renamed(pl.end)
}

// holds reports whether the plan can be extended at v: it exists, does
// not start in v's future, plans no start before now, and every job the
// last decision started has left the queue.
func (pl *Plan) holds(v View) bool {
	if pl.profile == nil || pl.profile.Start() > v.Now || len(pl.heap) > 0 && pl.heap[0].start < v.Now {
		return false
	}
	for _, n := range pl.due {
		if i := n - v.base; uint(i) < uint(len(v.Queue)) && v.Queue[i] != nil {
			return false
		}
	}
	return true
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
	for i := max(pl.end-v.base, 0); i < len(v.Queue); i++ {
		j := v.Queue[i]
		if j == nil {
			continue
		}
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
			continue
		}
		pl.push(planned{start, v.base + i})
	}
	pl.end = v.base + len(v.Queue)

	// The due jobs start in queue order, the order they were planned in.
	pl.due = pl.due[:0]
	for len(pl.heap) > 0 && pl.heap[0].start <= v.Now+1e-12 {
		e := pl.pop()
		pl.due = append(pl.due, e.slot)
		exact = exact && e.start == v.Now
	}
	slices.Sort(pl.due)
	out := v.Scratch
	for _, n := range pl.due {
		j := v.Queue[n-v.base]
		out = append(out, Decision{Job: j, Procs: procsFor(j), at: n - v.base + 1})
	}
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
