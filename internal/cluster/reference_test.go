package cluster

// The naive reference the engine is audited against. At every decision
// it rebuilds the decision point from the Sim's primary state alone —
// clock, machine, working count, waiting queue, running records and
// active capacity losses — and decides by the straight-line policies:
// FCFS, the walks down the whole queue that EASY and greedy fit made
// before the queue index, and conservative backfilling planned from
// scratch over the whole queue. It never reads the Sim's profile, plan,
// index or decision scratch, so a derived structure gone stale shows as
// a disagreement with it.

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/rigid"
	"repro/internal/stats"
	"repro/internal/workload"
)

// point is a decision point as the reference sees it.
type point struct {
	now, speed float64
	avail      int
	// queue is the queue's slots, holes (nil) included; the walks skip
	// them.
	queue []*workload.Job
	// profile holds the running jobs' reservations and the capacity
	// losses. The walks read it and write only into clones.
	profile *rigid.Profile
}

func (p point) duration(j *workload.Job, procs int) float64 { return j.TimeOn(procs) / p.speed }

// referenceOf rebuilds the decision point s is at from its primary state.
// A running job's reservation starts at its recorded start and lasts
// TimeOn/Speed, as Sim.start made it; the capacity losses are carved out
// the way rebuildProfile carves them: the outages in order until their
// repair times, whatever else is lost for good. The profile is therefore
// the Sim's bit for bit, whether the Sim brought it up to date
// reservation by reservation or rebuilt it.
// working is the working count the losses leave.
func referenceOf(t *testing.T, s *Sim) (p point, working int) {
	t.Helper()
	now := s.DES.Now()
	down := s.traceDown
	for _, o := range s.outages {
		down += o.procs
	}
	working = s.M - min(down, s.M)
	p = point{now: now, speed: s.Speed, avail: working, queue: s.queue.jobs, profile: rigid.NewProfile(s.M)}
	reserve := func(start, dur float64, procs int) {
		if err := p.profile.Reserve(start, dur, procs); err != nil {
			t.Fatalf("t=%v: the running set and the losses overcommit the machine: %v", now, err)
		}
	}
	lost := s.M - working
	for _, o := range s.outages {
		k := min(o.procs, lost)
		reserve(0, o.until, k)
		lost -= k
	}
	reserve(0, availHorizon, lost)
	for _, r := range s.running {
		p.avail -= r.procs
		reserve(r.start, r.job.TimeOn(r.procs)/s.Speed, r.procs)
	}
	p.profile.TrimBefore(now)
	return p, working
}

// decide is the reference's decision for the shipped policy pol. For
// conservative backfilling it also returns the planned start of every
// queued job (NaN for a job that could not be planned) and the plan's
// profile, which the caller recycles.
func (p point) decide(pol Policy) (out []Decision, starts []float64, plan *rigid.Profile) {
	switch pol.(type) {
	case FCFSPolicy:
		return p.fcfs(), nil, nil
	case EASYPolicy:
		return p.easy(), nil, nil
	case GreedyFitPolicy:
		return p.greedyFit(), nil, nil
	case ConservativePolicy:
		return p.conservative()
	}
	panic("no reference for policy " + pol.Name())
}

// live returns the jobs of p's queue in order, holes left out.
func (p point) live() []*workload.Job {
	return slices.DeleteFunc(slices.Clone(p.queue), func(j *workload.Job) bool { return j == nil })
}

// fcfs starts queue heads while they fit.
func (p point) fcfs() []Decision {
	var out []Decision
	avail := p.avail
	for _, j := range p.live() {
		q := procsFor(j)
		if q > avail {
			break
		}
		out = append(out, Decision{Job: j, Procs: q})
		avail -= q
	}
	return out
}

// easy is EASY backfilling as a walk: after the heads that fit, it tests
// every job behind the blocked head in queue order.
func (p point) easy() []Decision {
	if len(p.queue) == 0 {
		return nil
	}
	var out []Decision
	avail := p.avail
	queue := p.live()
	profile := p.profile.Clone()
	defer profile.Recycle()
	for len(queue) > 0 {
		head := queue[0]
		q := procsFor(head)
		if q > avail {
			break
		}
		out = append(out, Decision{Job: head, Procs: q})
		avail -= q
		if err := profile.Reserve(p.now, p.duration(head, q), q); err != nil {
			return out
		}
		queue = queue[1:]
	}
	if len(queue) == 0 {
		return out
	}
	shadow, extra := profile.EarliestAvail(p.now, procsFor(queue[0]))
	if extra < 0 {
		extra = 0
	}
	for _, j := range queue[1:] {
		if avail <= 0 {
			break
		}
		q := procsFor(j)
		if q > avail {
			continue
		}
		end := p.now + p.duration(j, q)
		fitsBefore := end <= shadow+1e-12
		fitsBeside := q <= extra
		if fitsBefore || fitsBeside {
			out = append(out, Decision{Job: j, Procs: q})
			avail -= q
			if !fitsBefore {
				extra -= q
			}
		}
	}
	return out
}

// greedyFit starts every job that fits, in queue order.
func (p point) greedyFit() []Decision {
	var out []Decision
	avail := p.avail
	for _, j := range p.live() {
		if avail <= 0 {
			break
		}
		if q := procsFor(j); q <= avail {
			out = append(out, Decision{Job: j, Procs: q})
			avail -= q
		}
	}
	return out
}

// conservative plans every queued job from now, in queue order, on the
// running set's profile and starts what is due. starts is by slot, NaN
// for a hole.
func (p point) conservative() (out []Decision, starts []float64, plan *rigid.Profile) {
	plan = p.profile.Clone()
	starts = make([]float64, len(p.queue))
	for i, j := range p.queue {
		starts[i] = math.NaN()
		if j == nil {
			continue
		}
		q := procsFor(j)
		dur := p.duration(j, q)
		start, err := plan.EarliestSlot(p.now, dur, q)
		if err != nil {
			continue
		}
		if err := plan.Reserve(start, dur, q); err != nil {
			continue
		}
		starts[i] = start
		if start <= p.now+1e-12 {
			out = append(out, Decision{Job: j, Procs: q})
		}
	}
	return out, starts, plan
}

// audit runs a shipped policy for sim and, at every decision, requires:
// one decision per instant — no event still pending at the decision's
// time, and no decision while the last one's starts are being made; a
// view made of the Sim's live state; View.Avail equal to the working
// processors less the running ones, room in those for the best-effort
// tasks, and no running job started before its release; View.Profile
// equal to the reference's bit for bit; the index in step with the queue
// before and after; the reference's decisions, by pointer and in order,
// twice over, each naming its job through its position; and, under
// conservative backfilling, the reference's plan kept.
type audit struct {
	t     *testing.T
	inner Policy
	sim   *Sim // set before the Sim decides anything
	// hog makes every third non-empty decision start with the widest job
	// that fits, so that the Sim refuses some of the starts that follow.
	hog bool
	// sample, when set, makes the audit read View.Profile only at the
	// decisions it draws, so that starts pile up unreserved between reads
	// as they do under a policy that seldom reads it.
	sample *stats.RNG
	// unread, when set, holds the jobs started since the Sim's profile was
	// last read, kept from the start, finish and kill observers alone;
	// every decision requires it to be the Sim's running[reserved:].
	unread map[*workload.Job]bool
	// cov counts, across audits, how often each path was taken.
	cov map[string]int
	// slots maps each job queued at the last decision, and neither started
	// nor stolen since, to its slot number, for noteCompaction.
	slots map[*workload.Job]int
	// returned counts the starts decided, started those made (kept by
	// auditedSim's start observer), and decided the decisions at each
	// instant.
	returned, started int
	decided           map[float64]int
	// starting is set from a decision's return until the Sim reports idle
	// (OnIdle), once that decision's starts are all made or refused.
	starting bool
}

// newAudit returns an audit of inner counting into cov, to be bound to
// its Sim.
func newAudit(t *testing.T, inner Policy, cov map[string]int) *audit {
	return &audit{t: t, inner: inner, cov: cov, decided: map[float64]int{}, slots: map[*workload.Job]int{}}
}

// bind makes s the audited Sim, whose idle report ends each decision's
// starts.
func (a *audit) bind(s *Sim) {
	a.sim = s
	s.OnIdle = func(int) { a.starting = false }
}

func (a *audit) Name() string { return a.inner.Name() }

func (a *audit) Decide(v View) []Decision {
	t, s := a.t, a.sim
	if next, ok := s.DES.PeekTime(); ok && next <= v.Now {
		t.Fatalf("t=%v: a decision with an event still pending at %v", v.Now, next)
	}
	if a.starting {
		t.Fatalf("t=%v: a decision while the last decision's starts are being made", v.Now)
	}
	a.cov["decisions"]++
	a.decided[v.Now]++
	requireLiveView(t, s, v)
	ref, working := referenceOf(t, s)
	if working != s.avail || v.Avail != ref.avail || v.Avail < 0 {
		t.Fatalf("t=%v: %d processors working and View.Avail %d; the losses leave %d working and the running set %d free",
			v.Now, s.avail, v.Avail, working, ref.avail)
	}
	if len(s.beActive) > v.Avail {
		t.Fatalf("t=%v: %d best-effort tasks run on the %d processors the local jobs leave", v.Now, len(s.beActive), v.Avail)
	}
	for _, r := range s.running {
		if r.start < r.job.Release {
			t.Fatalf("t=%v: job %d started at %v, before its release at %v", v.Now, r.job.ID, r.start, r.job.Release)
		}
	}
	if a.unread != nil {
		a.checkUnread()
	}
	if a.sample == nil || a.sample.Bool(0.2) {
		if a.sample != nil && s.stale && len(s.running) > s.reserved {
			a.cov["stale profiles read with unread starts"]++
		}
		sameProfile(t, v.Now, v.Profile(), ref.profile, "View.Profile", "the reference")
	}

	checkIndex(t, v)
	a.noteCompaction(v)
	if _, ok := a.inner.(ConservativePolicy); ok && v.Plan.holds(v) && len(v.Plan.heap) > 0 {
		a.cov["decisions extending a kept plan"]++
		if len(v.Plan.due) > 0 {
			a.cov["decisions extending a plan kept across starts"]++
		}
	} else if ok {
		a.cov["decisions planning from scratch"]++
	}
	want, starts, plan := ref.decide(a.inner)
	defer plan.Recycle()
	first := slices.Clone(a.inner.Decide(v))
	checkIndex(t, v)
	// A decision consumes nothing: asked again, the policy says the same.
	// Conservative then plans afresh if the first decision started a job
	// (it is still queued), so the plan the first decision left, the one
	// the Sim goes on with and checkPlan checks, is put back afterwards.
	kept := planCopy(v.Plan)
	got := a.inner.Decide(v)
	checkIndex(t, v)
	v.Plan.Invalidate()
	*v.Plan = kept
	sameDecisions(t, v.Now, first, want)
	sameDecisions(t, v.Now, got, want)
	requirePositions(t, v, first)
	requirePositions(t, v, got)
	if plan != nil {
		checkPlan(t, v, got, starts, plan)
	}
	a.countSearch(v, got)
	if s.reserved == len(s.running) {
		clear(a.unread) // the profile was read: every start is reserved
	}

	if a.hog && len(got) > 0 && a.cov["decisions"]%3 == 0 {
		var wide *workload.Job
		for _, j := range pointOf(v).live() {
			if procsFor(j) <= v.Avail && (wide == nil || procsFor(j) > procsFor(wide)) {
				wide = j
			}
		}
		if wide != nil {
			got = slices.Insert(got, 0, Decision{Job: wide, Procs: procsFor(wide)}) // in the scratch while it has room
		}
	}
	for _, d := range got {
		delete(a.slots, d.Job)
	}
	a.returned += len(got)
	a.starting = true
	return got
}

// noteCompaction counts the decisions that find the queue compacted
// since the last: the only edit that renumbers a job queued at both
// decisions (a trim keeps every number). A job that left in between and
// came back has a new number, so Decide forgets the jobs it decides, and
// steal those it steals.
func (a *audit) noteCompaction(v View) {
	moved := false
	for i, j := range v.Queue {
		if k, ok := a.slots[j]; ok {
			moved = moved || k != v.base+i
		}
	}
	if moved {
		a.cov["queue compacted"]++
	}
	clear(a.slots)
	for i, j := range v.Queue {
		if j != nil {
			a.slots[j] = v.base + i
		}
	}
}

// checkUnread requires the records the Sim holds unreserved to be the
// jobs started since the profile was last read, as the observers saw
// them.
func (a *audit) checkUnread() {
	s := a.sim
	pending := s.running[s.reserved:]
	if len(pending) != len(a.unread) || slices.ContainsFunc(pending, func(r *localRunning) bool { return !a.unread[r.job] }) {
		a.t.Fatalf("t=%v: %d of %d running records unreserved, %d jobs started since the last read",
			s.DES.Now(), len(pending), len(s.running), len(a.unread))
	}
}

// planCopy returns a copy of pl that shares no memory with it.
func planCopy(pl *Plan) Plan {
	c := Plan{heap: slices.Clone(pl.heap), end: pl.end, due: slices.Clone(pl.due)}
	if pl.profile != nil {
		c.profile = pl.profile.Clone()
	}
	return c
}

// checkPlan requires the plan ConservativePolicy kept after deciding got
// to be the reference's: the jobs still queued, by slot number, each
// at the start the whole-queue plan gives it, on the same timeline, with
// every job queued planned and a heap in order.
func checkPlan(t *testing.T, v View, got []Decision, starts []float64, plan *rigid.Profile) {
	t.Helper()
	pl := v.Plan
	if pl.profile == nil || len(v.Queue) == 0 {
		// Left invalid on purpose (the next decision starts over), or
		// nothing to plan: an empty queue returns before the trim.
		return
	}
	for i := 1; i < len(pl.heap); i++ {
		if pl.heap[i].before(pl.heap[(i-1)/2]) {
			t.Fatalf("t=%v: plan heap entry %d %+v comes before its parent %+v", v.Now, i, pl.heap[i], pl.heap[(i-1)/2])
		}
	}
	byArrival := slices.SortedFunc(slices.Values(pl.heap), func(a, b planned) int { return cmp.Compare(a.slot, b.slot) })
	if end := v.base + len(v.Queue); pl.end != end {
		t.Fatalf("t=%v: plan covers slot numbers below %d, the queue ends at %d", v.Now, pl.end, end)
	}
	k := 0
	for i, j := range v.Queue {
		if j == nil || slices.ContainsFunc(got, func(d Decision) bool { return d.Job == j }) {
			continue
		}
		if k >= len(byArrival) || byArrival[k].slot != v.base+i {
			t.Fatalf("t=%v: queued job %d (slot %d, slot number %d) is not planned job %d", v.Now, j.ID, i, v.base+i, k)
		}
		if math.Float64bits(byArrival[k].start) != math.Float64bits(starts[i]) {
			t.Fatalf("t=%v: job %d planned at %v, the reference plans it at %v", v.Now, j.ID, byArrival[k].start, starts[i])
		}
		k++
	}
	if k != len(byArrival) {
		t.Fatalf("t=%v: %d planned jobs, %d still queued", v.Now, len(byArrival), k)
	}
	sameProfile(t, v.Now, pl.profile, plan, "the kept plan", "the reference's plan")
}

// countSearch counts, for the policies that search the queue index, the
// decisions that searched it by how many jobs the search took: none, one,
// several. A decision searches when it stops at a blocked head with
// processors left, and then the whole queue must be indexed.
func (a *audit) countSearch(v View, got []Decision) {
	switch a.inner.(type) {
	case EASYPolicy, GreedyFitPolicy:
	default:
		return
	}
	queue := pointOf(v).live()
	heads, avail := 0, v.Avail
	for heads < len(got) && got[heads].Job == queue[heads] {
		avail -= got[heads].Procs
		heads++
	}
	for _, d := range got[heads:] {
		if d.pos == 0 {
			a.t.Fatalf("t=%v: job %d, backfilled, names no lane position", v.Now, d.Job.ID)
		}
	}
	if heads == len(queue) || avail <= 0 {
		return
	}
	if end := v.base + len(v.Queue); v.Index.end < end {
		a.t.Fatalf("t=%v: the decision stopped at a blocked head with %d processors left and indexed slot numbers below %d of %d",
			v.Now, avail, v.Index.end, end)
	}
	a.cov[[...]string{"searches taking no job", "searches taking one job", "searches taking several jobs"}[min(len(got)-heads, 2)]]++
}

// churnTwoClusters drives two clusters of unequal speed on one clock,
// one policy each, through a randomized saturating workload with
// best-effort churn, arrival groups sharing a timestamp, crashes and
// repairs, availability steps and queue migration between the two
// (StealQueued into Submit, through steal, which counts into cov).
// setup, when set, sees each cluster before anything is submitted. It
// returns the clusters once both have run dry, and whether every job
// completed.
func churnTwoClusters(t *testing.T, seed uint64, policies [2]Policy, cov map[string]int, setup func(*Sim)) (sims [2]*Sim, ok bool) {
	t.Helper()
	rng := stats.NewRNG(seed)
	clock := des.New()
	m := rng.IntRange(4, 24)
	for c := range sims {
		// Unequal speeds: durations stop being round numbers.
		s, err := New(clock, m, 1+0.37*float64(c), policies[c], KillNewest)
		if err != nil {
			t.Fatal(err)
		}
		if setup != nil {
			setup(s)
		}
		sims[c] = s
	}
	n := rng.IntRange(10, 60)
	horizon := 0.0
	for c, s := range sims {
		for i := 0; i < 20; i++ {
			s.SubmitBestEffort(BETask{BagID: c, Duration: rng.Range(1, 15)})
		}
		at := 0.0
		for i := 0; i < n; i++ {
			at += rng.Exp(1.5) // well above the drain rate: the queue grows
			if rng.Bool(0.2) {
				at = math.Floor(at) // arrival groups sharing a timestamp
			}
			j := rjob(c*1000+i, rng.Range(0.5, 12), rng.IntRange(1, m), at)
			if err := s.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		horizon = math.Max(horizon, at)
	}
	horizon *= 3
	for k := rng.IntRange(0, 4); k > 0; k-- {
		s, at := sims[rng.Intn(2)], rng.Range(0, horizon)
		procs, repair := rng.IntRange(1, m), rng.Range(0.5, 20)
		if err := clock.At(at, func() { _ = s.Crash(procs, at+repair) }); err != nil {
			t.Fatal(err)
		}
	}
	for k := rng.IntRange(0, 3); k > 0; k-- {
		s, at, avail := sims[rng.Intn(2)], rng.Range(0, horizon), rng.IntRange(0, m)
		if err := clock.At(at, func() { s.SetAvailability(avail) }); err != nil {
			t.Fatal(err)
		}
	}
	for k := rng.IntRange(0, 6); k > 0; k-- {
		src, at, count := rng.Intn(2), rng.Range(0, horizon), rng.IntRange(1, 3)
		if err := clock.At(at, func() {
			for _, j := range steal(t, sims[src], count, cov) {
				if err := sims[1-src].Submit(j); err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Whatever the availability steps left pinned comes back, so every
	// job can finish.
	for _, s := range sims {
		if err := clock.At(horizon, func() { s.SetAvailability(m) }); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range sims {
		if err := s.Run(); err != nil {
			t.Error(err)
			return sims, false
		}
	}
	return sims, sims[0].CompletedCount()+sims[1].CompletedCount() == 2*n
}

// steal is s.StealQueued(n), which must take the last n jobs queued, or
// all of them, and leave the others queued in order. A steal from a queue
// holding holes counts as "steal with holes present" in cov.
func steal(t *testing.T, s *Sim, n int, cov map[string]int) []*workload.Job {
	t.Helper()
	if len(s.queue.jobs) > s.queue.live {
		cov["steal with holes present"]++
	}
	before := s.Queued()
	stolen := s.StealQueued(n)
	if a, ok := s.policy.(*audit); ok {
		for _, j := range stolen {
			delete(a.slots, j) // see noteCompaction
		}
	}
	after := s.Queued()
	if k := len(before) - min(n, len(before)); !slices.Equal(after, before[:k]) || !slices.Equal(stolen, before[k:]) {
		t.Fatalf("t=%v: stealing %d of %d queued jobs took %d and left %d", s.DES.Now(), n, len(before), len(stolen), len(after))
	}
	return stolen
}

// churnMode selects what churnAudited does beyond auditing: hog refuses
// starts on purpose (see audit); lazy makes each audit read the profile
// at a seeded subset of decisions only and follow the starts the Sim
// leaves unreserved: those that finish, are killed, or are killed and
// then stolen by the other cluster before a read.
type churnMode struct{ hog, lazy bool }

// churnAudited runs churnTwoClusters with an audit bound to each cluster,
// cluster c deciding by policies[c]. Unless the mode refuses some on
// purpose (hog), every start decided must be made.
func churnAudited(t *testing.T, seed uint64, policies [2]Policy, mode churnMode, cov map[string]int) bool {
	t.Helper()
	var audits [2]*audit
	for c := range audits {
		audits[c] = newAudit(t, policies[c], cov)
		audits[c].hog = mode.hog
		if mode.lazy {
			audits[c].sample = stats.NewRNG(seed*2 + uint64(c))
			audits[c].unread = map[*workload.Job]bool{}
		}
	}
	// killedUnread maps a job killed before its start was reserved to the
	// cluster that killed it.
	killedUnread := map[*workload.Job]*Sim{}
	bound, started := 0, 0
	sims, ok := churnTwoClusters(t, seed, [2]Policy{audits[0], audits[1]}, cov, func(s *Sim) {
		a := audits[bound]
		a.bind(s)
		bound++
		s.OnLocalStart = func(j *workload.Job, _ int, _ float64) {
			started++
			if mode.lazy {
				a.unread[j] = true
				delete(killedUnread, j)
			}
		}
		if !mode.lazy {
			return
		}
		s.OnLocalDone = func(c metrics.Completion) {
			if a.unread[c.Job] {
				cov["unread starts finished"]++
				delete(a.unread, c.Job)
			}
		}
		s.OnLocalKilled = func(j *workload.Job, _ int, _ float64) {
			if a.unread[j] {
				cov["unread starts killed"]++
				delete(a.unread, j)
				killedUnread[j] = s
			}
		}
		s.OnLocalSubmit = func(j *workload.Job, _ float64) {
			if from := killedUnread[j]; from != nil && from != s {
				cov["unread starts killed, then stolen"]++
			}
		}
	})
	refused := audits[0].returned + audits[1].returned - started
	if !mode.hog && refused != 0 {
		t.Fatalf("%d decided starts refused", refused)
	}
	cov["refused starts"] += refused
	cov["running jobs killed"] += sims[0].FaultStats().Requeues + sims[1].FaultStats().Requeues
	return ok
}

// TestSimMatchesReference audits every shipped policy against the
// reference on the fault harness, on the same harness with refused
// starts, again with the profile read at a seeded subset of decisions
// only, on a healthy cluster with best-effort churn, on a repair under a
// pinned availability, on one due at the instant of a rebuild, and on
// starts that steal or crash from inside. The audit holds the Sim to one
// decision per instant on every one of these histories.
func TestSimMatchesReference(t *testing.T) {
	for _, inner := range []Policy{FCFSPolicy{}, EASYPolicy{}, GreedyFitPolicy{}, ConservativePolicy{}} {
		t.Run(inner.Name(), func(t *testing.T) {
			cov := map[string]int{}
			t.Run("churn", func(t *testing.T) {
				checkSeeds(t, &quick.Config{MaxCountScale: 1.5}, func(seed uint64) bool {
					return churnAudited(t, seed, [2]Policy{inner, inner}, churnMode{}, cov)
				})
			})
			t.Run("refused-starts", func(t *testing.T) {
				for seed := uint64(1); seed <= 40; seed++ {
					if !churnAudited(t, seed, [2]Policy{inner, inner}, churnMode{hog: true}, cov) {
						t.Fatalf("seed %d: not every job completed", seed)
					}
				}
			})
			t.Run("sampled-reads", func(t *testing.T) {
				checkSeeds(t, &quick.Config{MaxCountScale: 1.5}, func(seed uint64) bool {
					return churnAudited(t, seed, [2]Policy{inner, inner}, churnMode{hog: true, lazy: true}, cov)
				})
			})
			t.Run("healthy", func(t *testing.T) {
				checkSeeds(t, &quick.Config{MaxCount: 25}, func(seed uint64) bool {
					return healthyAudited(t, seed, inner, cov)
				})
			})
			t.Run("repair-under-pinned-loss", func(t *testing.T) { pinnedRepairAudited(t, inner, cov) })
			t.Run("repair-due-at-rebuild", func(t *testing.T) { repairDueAtRebuildAudited(t, inner, cov) })
			t.Run("steal-inside-start", func(t *testing.T) { stealInsideStartAudited(t, inner, cov) })
			t.Run("crash-inside-start", func(t *testing.T) { crashInsideStartAudited(t, inner, cov) })

			want := append([]string{"running jobs killed", "refused starts", "queue compacted", "steal with holes present"},
				unreadPaths...)
			switch inner.(type) {
			case EASYPolicy, GreedyFitPolicy:
				want = append(want, "searches taking no job", "searches taking one job", "searches taking several jobs")
			case ConservativePolicy:
				want = append(want, planPaths...)
			}
			requireCovered(t, cov, want...)
			t.Logf("%v", cov)
		})
	}
}

// requireCovered fails for every path in want that cov never counted.
func requireCovered(t *testing.T, cov map[string]int, want ...string) {
	t.Helper()
	for _, path := range want {
		if cov[path] == 0 {
			t.Errorf("no %s: that path was not exercised (%v)", path, cov)
		}
	}
}

// unreadPaths are the paths a start the Sim has not reserved yet must
// take under the sampled audit: it finishes, or is killed and requeued,
// or is killed and taken by the other cluster, before the profile is
// read; and a read finds the profile due for a rebuild with such starts
// still running.
var unreadPaths = []string{"unread starts finished", "unread starts killed", "unread starts killed, then stolen", "stale profiles read with unread starts"}

// planPaths are the paths conservative backfilling must take under the
// audit: a kept plan extended, one kept across a decision that started
// jobs extended, and a plan made from scratch.
var planPaths = []string{"decisions extending a kept plan", "decisions extending a plan kept across starts", "decisions planning from scratch"}

// TestConservativePlanMatchesReplan audits conservative backfilling, its
// kept plan included, on churnTwoClusters beside an EASY cluster whose
// jobs a steal moves into the plan. Every plan path must be taken.
func TestConservativePlanMatchesReplan(t *testing.T) {
	cov := map[string]int{}
	checkSeeds(t, &quick.Config{MaxCountScale: 1.5}, func(seed uint64) bool {
		return churnAudited(t, seed, [2]Policy{ConservativePolicy{}, EASYPolicy{}}, churnMode{}, cov)
	})
	requireCovered(t, cov, planPaths...)
}

// TestViewIsLiveUnderChurn: the audit requires every view to be the
// simulator's own state (requireLiveView) on clusters that crash, steal,
// migrate, evict and refuse starts, each seed's two clusters deciding by
// two different policies.
func TestViewIsLiveUnderChurn(t *testing.T) {
	policies := []Policy{FCFSPolicy{}, EASYPolicy{}, GreedyFitPolicy{}, ConservativePolicy{}}
	cov := map[string]int{}
	for seed := uint64(1); seed <= 40; seed++ {
		if !churnAudited(t, seed, [2]Policy{policies[seed%4], policies[(seed+1)%4]}, churnMode{hog: true}, cov) {
			t.Fatalf("seed %d: not every job completed", seed)
		}
	}
	requireCovered(t, cov, "running jobs killed", "refused starts")
}

// auditedSim returns a cluster of m processors deciding by inner under
// an audit that counts the starts made.
func auditedSim(t *testing.T, m int, inner Policy, cov map[string]int) *Sim {
	a := newAudit(t, inner, cov)
	s, err := New(des.New(), m, 1, a, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	a.bind(s)
	s.OnLocalStart = func(*workload.Job, int, float64) { a.started++ }
	return s
}

// requireRefused fails unless the Sim refused exactly want of the starts
// its audit decided.
func requireRefused(t *testing.T, s *Sim, want int) {
	t.Helper()
	a := s.policy.(*audit)
	if got := a.returned - a.started; got != want {
		t.Fatalf("%d of %d decided starts refused, want %d", got, a.returned, want)
	}
}

// healthyAudited runs local jobs and best-effort churn, forcing kills and
// refills but no fault, through one audited cluster.
func healthyAudited(t *testing.T, seed uint64, inner Policy, cov map[string]int) bool {
	rng := stats.NewRNG(seed)
	m := rng.IntRange(2, 16)
	n := rng.IntRange(1, 20)
	s := auditedSim(t, m, inner, cov)
	for i := 0; i < 25; i++ {
		s.SubmitBestEffort(BETask{BagID: 1, Duration: rng.Range(1, 15)})
	}
	clock := 0.0
	for i := 0; i < n; i++ {
		clock += rng.Exp(0.3)
		if err := s.Submit(rjob(i, rng.Range(0.5, 12), rng.IntRange(1, m), clock)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	requireRefused(t, s, 0)
	return len(s.Completions()) == n
}

// pinnedRepairAudited: on 10 processors 3 crash at 1 until 5, and the
// availability is pinned to 0 at 2, so the repair at 5 leaves the working
// count at 0. Three 2-wide jobs arrive at 6; the pin lifts at 10. A
// profile that was not rebuilt at the repair still has the outage's 3
// processors coming back at 5.
func pinnedRepairAudited(t *testing.T, inner Policy, cov map[string]int) {
	s := auditedSim(t, 10, inner, cov)
	err := errors.Join(
		s.DES.At(1, func() { _ = s.Crash(3, 5) }),
		s.DES.At(2, func() { s.SetAvailability(0) }),
		s.DES.At(10, func() { s.SetAvailability(10) }),
		submitAll(s, []*workload.Job{rjob(0, 4, 2, 6), rjob(1, 4, 2, 6), rjob(2, 4, 2, 6)}),
	)
	if err == nil {
		err = s.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Completions() {
		if c.Start != 10 {
			t.Fatalf("job %d started at %v, want 10, when the pin lifts", c.Job.ID, c.Start)
		}
	}
	if got := s.CompletedCount(); got != 3 {
		t.Fatalf("%d of 3 jobs completed", got)
	}
	requireRefused(t, s, 0)
}

// repairDueAtRebuildAudited: on 4 processors the availability is pinned
// to 3 at 0 and 1 processor crashes until 10. R (1 wide, 50 long) starts
// at 0 and H (3 wide, 5 long) waits; at 10 the pin lifts, B (1 wide, 30
// long) arrives and the crash is repaired, in that order. Neither the
// lifted pin nor B's arrival decides while the repair is due: the one
// decision at 10 follows the repair, sees all 4 processors, and every
// policy starts H then. A decision before the repair sees 2 processors
// free beside R, too few for H: with the repair's processor held for
// good, B backfills and H waits until 40, when B ends; with it coming
// back at 10, greedy fit still starts B first, and conservative decides
// H before the processor is there, a start the Sim refuses.
func repairDueAtRebuildAudited(t *testing.T, inner Policy, cov map[string]int) {
	s := auditedSim(t, 4, inner, cov)
	h := rjob(1, 5, 3, 0)
	err := errors.Join(
		s.DES.At(0, func() {
			s.SetAvailability(3)
			_ = s.Crash(1, 10)
		}),
		s.DES.At(10, func() { s.SetAvailability(4) }),
		submitAll(s, []*workload.Job{rjob(0, 50, 1, 0), h, rjob(2, 30, 1, 10)}),
	)
	if err == nil {
		err = s.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Completions() {
		if c.Job == h && c.Start != 10 {
			t.Fatalf("H started at %v, want 10", c.Start)
		}
	}
	if got := s.CompletedCount(); got != 3 {
		t.Fatalf("%d of 3 jobs completed", got)
	}
	if n := s.policy.(*audit).decided[10]; n != 1 {
		t.Fatalf("%d decisions at 10, want 1", n)
	}
	requireRefused(t, s, 0)
}

// stealInsideStartAudited: on 4 processors a 4-wide job runs until 2, and
// A and C (2 wide) queue to run beside each other from 2, B (4 wide)
// behind them. A's start at 2 steals C, the tail job, so C's start,
// decided with A's by every policy but FCFS, is refused: the one refusal
// an unwrapped case makes, and not for want of processors. D (2 wide)
// arrives at 3 and fits beside A before B; a plan still holding C's
// reservation has no room for it until B ends.
func stealInsideStartAudited(t *testing.T, inner Policy, cov map[string]int) {
	s := auditedSim(t, 4, inner, cov)
	a, b, c := rjob(1, 5, 2, 0), rjob(2, 5, 4, 0), rjob(3, 5, 2, 0)
	var stolen []*workload.Job
	count := s.OnLocalStart
	s.OnLocalStart = func(j *workload.Job, procs int, now float64) {
		count(j, procs, now)
		if j == a {
			stolen = steal(t, s, 1, cov)
		}
	}
	err := submitAll(s, []*workload.Job{rjob(0, 2, 4, 0), a, b, c, rjob(4, 3, 2, 3)})
	if err == nil {
		err = s.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(stolen) != 1 || stolen[0] != c || s.CompletedCount() != 4 {
		t.Fatalf("stole %v and completed %d jobs, want C stolen and the other 4 completed", stolen, s.CompletedCount())
	}
	want := 1
	if _, ok := inner.(FCFSPolicy); ok {
		want = 0
	}
	requireRefused(t, s, want)
}

// crashInsideStartAudited: on 8 processors A and B (2 wide) and C (4
// wide), released at 0, fill the machine, and every policy decides all
// three at 0. A's start crashes all 8 processors until 5, which kills A
// and requeues it behind C. The crash decides nothing from inside the
// start: B's and C's starts, decided with A's, are still made, and
// refused for want of processors, and the decision the crash asks for
// comes after them, at the end of the instant, and starts nothing. At
// the repair B, C and A start together.
func crashInsideStartAudited(t *testing.T, inner Policy, cov map[string]int) {
	s := auditedSim(t, 8, inner, cov)
	a := s.policy.(*audit)
	aj := rjob(0, 5, 2, 0)
	count := s.OnLocalStart
	crashed := false
	s.OnLocalStart = func(j *workload.Job, procs int, now float64) {
		count(j, procs, now)
		if j == aj && !crashed {
			crashed = true
			if err := s.Crash(8, 5); err != nil {
				t.Fatal(err)
			}
			if a.decided[0] != 1 {
				t.Fatalf("%d decisions at 0 inside A's start, want the one that started it", a.decided[0])
			}
		}
	}
	err := submitAll(s, []*workload.Job{aj, rjob(1, 5, 2, 0), rjob(2, 5, 4, 0)})
	if err == nil {
		err = s.Run()
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Completions() {
		if c.Start != 5 {
			t.Fatalf("job %d started at %v, want 5, at the repair", c.Job.ID, c.Start)
		}
	}
	if got := s.CompletedCount(); got != 3 || a.decided[0] != 2 {
		t.Fatalf("%d of 3 jobs completed, %d decisions at 0; want all, and 2", got, a.decided[0])
	}
	requireRefused(t, s, 2)
}

// busy is a running job of a decision point built in a test: procs
// processors held until end.
type busy struct {
	end   float64
	procs int
}

// testView returns the decision point a Sim would hand its policy at now
// on m processors of the given speed, with avail processors free, queue
// waiting and running holding processors: a Profile made of the running
// jobs' reservations, an empty plan and an empty index. queue may hold
// holes (nil); slot i has slot number i+1.
func testView(now float64, m int, speed float64, avail int, queue []*workload.Job, running ...busy) View {
	profile := rigid.NewProfile(m)
	profile.TrimBefore(now)
	for _, r := range running {
		if r.end > now {
			if err := profile.Reserve(now, r.end-now, r.procs); err != nil {
				panic(err)
			}
		}
	}
	return View{Now: now, Avail: avail, Speed: speed, Queue: queue, Plan: new(Plan), Index: new(QueueIndex), base: 1, profile: profile}
}

// pointOf is the reference's reading of a view built by testView, whose
// Profile is made of nothing but the running jobs it was given.
func pointOf(v View) point {
	return point{now: v.Now, speed: v.Speed, avail: v.Avail, queue: v.Queue, profile: v.profile}
}

// requireLiveView fails unless v is made of s's own state and nothing
// copied: the live queue, the kept index, plan and profile, and the
// decision scratch, empty and zeroed.
func requireLiveView(t *testing.T, s *Sim, v View) {
	t.Helper()
	q := &s.queue
	if len(v.Queue) != len(q.jobs) || (len(v.Queue) > 0 && &v.Queue[0] != &q.jobs[0]) || v.base != q.base {
		t.Fatalf("t=%v: View.Queue is not the live queue, or its slot numbers not the queue's", v.Now)
	}
	if v.Index != &s.index || v.Plan != &s.plan || v.sim != s || v.profile != nil {
		t.Fatalf("t=%v: view does not carry the simulator's index, plan and profile", v.Now)
	}
	if len(v.Scratch) != 0 || held(v.Scratch) != 0 || cap(v.Scratch) != cap(s.decisions) ||
		cap(v.Scratch) > 0 && &v.Scratch[:1][0] != &s.decisions[:1][0] {
		t.Fatalf("t=%v: scratch lent at length %d with %d decisions left in it, or not the Sim's", v.Now, len(v.Scratch), held(v.Scratch))
	}
}

// sameProfile requires two profiles to be equal bit for bit: the same
// breakpoints, from now on (history trimmed), and the same availability
// after each.
func sameProfile(t *testing.T, now float64, got, want *rigid.Profile, gotName, wantName string) {
	t.Helper()
	g, w := got.Breakpoints(), want.Breakpoints()
	if !slices.Equal(g, w) {
		t.Fatalf("t=%v: %s breaks at %v, %s at %v", now, gotName, g, wantName, w)
	}
	for _, at := range g {
		if got.AvailableAt(at) != want.AvailableAt(at) {
			t.Fatalf("t=%v: %s has %d free from %v, %s has %d", now, gotName, got.AvailableAt(at), at, wantName, want.AvailableAt(at))
		}
	}
}

// sameDecisions requires the same jobs (by pointer) on the same
// processor counts in the same order; positions are requirePositions's.
func sameDecisions(t *testing.T, now float64, got, want []Decision) {
	t.Helper()
	if !slices.EqualFunc(got, want, func(g, w Decision) bool { return g.Job == w.Job && g.Procs == w.Procs }) {
		t.Fatalf("t=%v: decided %v, the reference %v", now, describe(got), describe(want))
	}
}

// requirePositions requires every decision in ds to name its job's slot
// in v.Queue, the first that holds it, as Sim.start reads it: a start
// moves no other job. A decision that names a lane position must name
// the job's entry in its lane of v.Index, under the slot's number.
func requirePositions(t *testing.T, v View, ds []Decision) {
	t.Helper()
	for i, d := range ds {
		if slot := slices.Index(v.Queue, d.Job); d.at != slot+1 {
			t.Fatalf("t=%v: decision %d names job %d at position %d; the job is in slot %d", v.Now, i, d.Job.ID, d.at, slot)
		}
		if d.pos == 0 {
			continue
		}
		if l := laneOf(v.Index, procsFor(d.Job)); l == nil || d.pos > len(l.jobs) || l.jobs[d.pos-1] != d.Job || l.slots[d.pos-1] != v.base+d.at-1 {
			t.Fatalf("t=%v: decision %d names job %d at lane position %d, which does not hold it under slot number %d", v.Now, i, d.Job.ID, d.pos, v.base+d.at-1)
		}
	}
}

func describe(ds []Decision) [][2]int {
	out := make([][2]int, len(ds))
	for i, d := range ds {
		out[i] = [2]int{d.Job.ID, d.Procs}
	}
	return out
}

// checkSeeds runs f on quick.Check's random seeds under cfg and names the
// seed of a run that failed.
func checkSeeds(t *testing.T, cfg *quick.Config, f func(seed uint64) bool) {
	t.Helper()
	err := quick.Check(func(seed uint64) bool {
		defer func() {
			if t.Failed() {
				t.Logf("failing seed: %d", seed)
			}
		}()
		return f(seed)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
