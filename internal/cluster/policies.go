package cluster

import (
	"math"

	"repro/internal/rigid"
	"repro/internal/workload"
)

// procsFor returns the processor count a queue policy uses for a job:
// rigid jobs their fixed count; moldable jobs their minimum (queue
// policies in production batch systems treat requests as rigid — the
// moldable intelligence lives in the batch/bicriteria algorithms).
func procsFor(j *workload.Job) int { return j.MinProcs }

// FCFSPolicy starts the queue head whenever it fits and never looks past
// it — the strict no-backfilling baseline.
type FCFSPolicy struct{}

// Name implements Policy.
func (FCFSPolicy) Name() string { return "fcfs" }

// Decide implements Policy.
func (FCFSPolicy) Decide(v View) []Decision {
	out := v.Scratch
	avail := v.Avail
	for i, j := range v.Queue {
		if j == nil {
			continue
		}
		p := procsFor(j)
		if p > avail {
			break
		}
		out = append(out, Decision{Job: j, Procs: p, at: i + 1})
		avail -= p
	}
	return out
}

// EASYPolicy is EASY (aggressive) backfilling: the queue head gets a
// reservation at the earliest time enough processors free up (the shadow
// time); later jobs may start now if they terminate before the shadow
// time or fit in the processors left over at it.
//
// The shadow time is read off the cluster's persistent availability
// profile (one scan over the profile's segments) instead of sorting the
// running set at every decision point. Because all reservations in that
// profile start now, its availability is non-decreasing over the future,
// so the first segment with enough free processors is the shadow time —
// and its surplus counts *every* processor free at that instant, where
// the former sorted-scan stopped mid-way through simultaneous releases.
//
// The profile is fetched on first use, never on entry: a decision that
// needs no shadow time leaves the Sim nothing to bring up to date. The
// shadow time has to count the heads this decision starts, whose
// reservations are not in the cluster's profile yet, so they go into a
// clone of it — once the decision has a reservation to write and will
// read the profile again. After the first head that fits, it will only if
// the next head fits too or is blocked with processors left to backfill
// around it. Otherwise the decision ends there, as it does for every
// arrival on an unsaturated cluster, with the same decisions whether the
// reservation succeeds or not, and without reading the profile at all.
type EASYPolicy struct{}

// Name implements Policy.
func (EASYPolicy) Name() string { return "easy" }

// Decide implements Policy.
func (EASYPolicy) Decide(v View) []Decision {
	if len(v.Queue) == 0 {
		return nil
	}
	out := v.Scratch
	avail := v.Avail
	queue := v.Queue
	// profile is nil until the decision reads it. It is a clone (own),
	// recycled on the way out, once the decision has a reservation to
	// write, and otherwise the cluster's own, to be read only.
	var profile *rigid.Profile
	own := false
	defer func() {
		if own {
			profile.Recycle()
		}
	}()

	// Start heads while they fit; k is the head's slot.
	k := nextLive(queue, 0)
	for k < len(queue) {
		head := queue[k]
		p := procsFor(head)
		if p > avail {
			break
		}
		out = append(out, Decision{Job: head, Procs: p, at: k + 1})
		avail -= p
		k = nextLive(queue, k+1)
		if !own {
			// The two tests that lead back to the profile: this loop's, and
			// the one behind it. (The second does not imply the first: a
			// job of no width starts on a full machine.)
			if k == len(queue) || (procsFor(queue[k]) > avail && avail <= 0) {
				return out
			}
			profile, own = v.Profile().Clone(), true
		}
		if err := profile.Reserve(v.Now, v.Duration(head, p), p); err != nil {
			return out // inconsistent view; stop extending the plan
		}
	}
	if k == len(queue) || avail <= 0 {
		return out // every job needs at least one processor
	}

	// Shadow time for the blocked head.
	if !own {
		profile = v.Profile()
	}
	head := queue[k]
	need := procsFor(head)
	shadow, extra := profile.EarliestAvail(v.Now, need)
	if extra < 0 {
		extra = 0 // saturated forever: nothing fits beside the head
	}

	return backfill(v, out, k, avail, extra, shadow)
}

// backfill appends to out the backfill of EASYPolicy and GreedyFitPolicy
// behind the blocked head in slot k, and returns it: every job behind the
// head, in queue order, that fits the avail free processors and either
// ends by the shadow time or fits the extra processors spare at it. avail
// and extra change only when a job is taken (and only shrink, so avail
// at 0 ends it), which means a walk down the queue tests all the jobs
// between two taken ones against the same numbers: it takes, each time,
// the first job behind the last one taken that passes — and that is the
// question the index answers without the walk. The index only finds the
// job; the test that takes it is the walk's own arithmetic, re-run here
// on the duration the lane keys the job by. A NaN duration keys as +Inf,
// which passes under an infinite shadow time where NaN must not, so a key
// of +Inf is read again. Each decision names its slot and lane position.
func backfill(v View, out []Decision, k, avail, extra int, shadow float64) []Decision {
	ix := v.Index
	ix.sync(v)
	after := v.base + k
	for avail > 0 {
		l, pos := ix.next(after, avail, extra, v.Now, shadow+1e-12)
		if l == nil {
			break
		}
		j, dur := l.jobs[pos], l.key(pos)
		after = l.slots[pos]
		p := procsFor(j)
		if math.IsInf(dur, 1) {
			dur = v.Duration(j, p)
		}
		end := v.Now + dur
		fitsBefore := end <= shadow+1e-12
		fitsBeside := p <= extra
		if !fitsBefore && !fitsBeside {
			continue // a NaN duration under an infinite shadow time
		}
		out = append(out, Decision{Job: j, Procs: p, at: after - v.base + 1, pos: pos + 1})
		avail -= p
		if !fitsBefore {
			extra -= p
		}
	}
	return out
}

// GreedyFitPolicy starts any queued job that fits, scanning in queue
// order — maximal utilization, no starvation protection (wide jobs can
// wait forever behind a stream of narrow ones).
type GreedyFitPolicy struct{}

// Name implements Policy.
func (GreedyFitPolicy) Name() string { return "greedyfit" }

// Decide implements Policy.
func (GreedyFitPolicy) Decide(v View) []Decision {
	out := v.Scratch
	avail := v.Avail
	// Heads that fit start without touching the index, as under EASY.
	k := nextLive(v.Queue, 0)
	for ; k < len(v.Queue) && avail > 0; k = nextLive(v.Queue, k+1) {
		p := procsFor(v.Queue[k])
		if p > avail {
			break
		}
		out = append(out, Decision{Job: v.Queue[k], Procs: p, at: k + 1})
		avail -= p
	}
	if k == len(v.Queue) || avail <= 0 {
		return out // every job needs at least one processor
	}
	// Then the backfill search, with every processor left spare: length
	// never matters.
	return backfill(v, out, k, avail, avail, math.Inf(1))
}
