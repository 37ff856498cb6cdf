package cluster

// Differential tests for the persistent conservative plan: the plan
// ConservativePolicy carries from decision to decision must at every
// decision point be the plan a from-scratch pass over the whole queue
// would produce — the invariant that lets the policy reserve one slot
// per arrival instead of one per queued job per event.

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/rigid"
	"repro/internal/stats"
	"repro/internal/workload"
)

// replanReference is the stateless conservative backfilling this
// package shipped before the plan was kept: clone the running set's
// profile, plan every queued job from v.Now, start what is due. It never
// looks at v.Plan. starts[i] is the planned start of v.Queue[i] (NaN for
// a job that could not be planned); the caller recycles the profile.
func replanReference(v View) (out []Decision, starts []float64, profile *rigid.Profile) {
	profile, ok := v.planProfile()
	if !ok {
		return nil, nil, nil
	}
	starts = make([]float64, len(v.Queue))
	for i, j := range v.Queue {
		starts[i] = math.NaN()
		p := procsFor(j)
		dur := v.Duration(j, p)
		start, err := profile.EarliestSlot(v.Now, dur, p)
		if err != nil {
			continue
		}
		if err := profile.Reserve(start, dur, p); err != nil {
			continue
		}
		starts[i] = start
		if start <= v.Now+1e-12 {
			out = append(out, Decision{Job: j, Procs: p})
		}
	}
	return out, starts, profile
}

// sameDecisions requires the same jobs (by pointer) on the same
// processor counts in the same order.
func sameDecisions(t *testing.T, now float64, got, want []Decision) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("t=%v: decided %v, the reference %v", now, describe(got), describe(want))
	}
}

func describe(ds []Decision) [][2]int {
	out := make([][2]int, len(ds))
	for i, d := range ds {
		out[i] = [2]int{d.Job.ID, d.Procs}
	}
	return out
}

// planAudit is ConservativePolicy with the stateless reference run
// beside it at every decision.
type planAudit struct {
	t *testing.T
	// decisions counts Decide calls, extended those that entered with a
	// plan still holding queued jobs (the incremental path proper).
	decisions, extended int
}

func (p *planAudit) Name() string { return "conservative" }

func (p *planAudit) Decide(v View) []Decision {
	t := p.t
	p.decisions++
	if v.Plan == nil {
		t.Fatal("view missing the persistent plan")
	}
	if v.Plan.holds(v) && len(v.Plan.jobs) > 0 {
		p.extended++
	}
	want, wantStarts, wantProfile := replanReference(v)
	defer wantProfile.Recycle()
	got := ConservativePolicy{}.Decide(v)
	sameDecisions(t, v.Now, got, want)

	pl := v.Plan
	if pl.profile == nil || len(v.Queue) == 0 {
		// Left invalid on purpose (the next decision starts over), or
		// nothing to plan: an empty queue returns before the trim.
		return got
	}
	// The jobs still queued after this decision, in order, are exactly
	// the planned ones, each at the reference's start — bit for bit.
	k := 0
	for i, j := range v.Queue {
		if slices.ContainsFunc(got, func(d Decision) bool { return d.Job == j }) {
			continue
		}
		if k >= len(pl.jobs) || pl.jobs[k] != j {
			t.Fatalf("t=%v: queued job %d (position %d) is not planned job %d", v.Now, j.ID, i, k)
		}
		if math.Float64bits(pl.starts[k]) != math.Float64bits(wantStarts[i]) {
			t.Fatalf("t=%v: job %d planned at %v, from-scratch plan says %v",
				v.Now, j.ID, pl.starts[k], wantStarts[i])
		}
		k++
	}
	if k != len(pl.jobs) {
		t.Fatalf("t=%v: %d planned jobs, %d still queued", v.Now, len(pl.jobs), k)
	}
	// Running + due + planned reservations: the same timeline as the
	// reference's, and one breakpoint at most per planned reservation on
	// top of the running set's (history trimmed, neighbours coalesced).
	// TestIncrementalProfileMatchesRebuild bounds v.Profile itself by
	// running + 1 on a healthy cluster, which makes this running +
	// planned + 1; after a fault v.Profile also carries the outages and
	// one-ULP slivers between rebuilt and exact end times.
	sameAvailability(t, v.Now, pl.profile, wantProfile, 0, "kept plan", "from-scratch plan")
	if segs, limit := pl.profile.Segments(), v.Profile.Segments()+len(got)+len(pl.jobs); segs > limit {
		t.Fatalf("t=%v: plan profile has %d segments for %d in the running set's + %d due + %d planned jobs",
			v.Now, segs, v.Profile.Segments(), len(got), len(pl.jobs))
	}
	return got
}

// churnTwoClusters drives two clusters of unequal speed on one clock,
// one policy each, through a randomized saturating workload with
// best-effort churn, arrival groups sharing a timestamp, crashes and
// repairs, availability steps and queue migration between the two
// (StealQueued into InjectNow). setup, when set, sees each cluster
// before anything is submitted. It returns the clusters once both have
// run dry, and whether every job completed.
func churnTwoClusters(t *testing.T, seed uint64, policies [2]Policy, setup func(*Sim)) (sims [2]*Sim, ok bool) {
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
			s.SubmitBestEffort(BETask{BagID: c, Index: i, Duration: rng.Range(1, 15)})
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
			for _, j := range sims[src].StealQueued(count) {
				if err := sims[1-src].InjectNow(j); err != nil {
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

// logFailingSeed names the seed of a randomized run that failed.
func logFailingSeed(t *testing.T, seed uint64) {
	if t.Failed() {
		t.Logf("failing seed: %d", seed)
	}
}

// TestConservativePlanMatchesReplan runs churnTwoClusters with the audit
// attached to both clusters.
func TestConservativePlanMatchesReplan(t *testing.T) {
	decisions, extended := 0, 0
	f := func(seed uint64) bool {
		defer logFailingSeed(t, seed)
		audits := [2]*planAudit{{t: t}, {t: t}}
		_, ok := churnTwoClusters(t, seed, [2]Policy{audits[0], audits[1]}, nil)
		for _, a := range audits {
			decisions += a.decisions
			extended += a.extended
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1.5}); err != nil {
		t.Fatal(err)
	}
	if extended == 0 || extended == decisions {
		t.Fatalf("%d of %d decisions extended a kept plan: both paths must be exercised", extended, decisions)
	}
	t.Logf("%d decisions, %d extended a kept plan", decisions, extended)
}

// TestConservativePlanOneShot: a view built by hand without a plan gets
// the same decisions through the same code, and a plan shared by
// successive hand-built views is rebuilt when a decided start did not
// happen.
func TestConservativePlanOneShot(t *testing.T) {
	v := benchView(50, 20, 64)
	want, _, profile := replanReference(v)
	profile.Recycle()
	if len(want) == 0 {
		t.Fatal("reference decided nothing")
	}
	sameDecisions(t, v.Now, ConservativePolicy{}.Decide(v), want)

	v.Plan = new(Plan)
	sameDecisions(t, v.Now, ConservativePolicy{}.Decide(v), want)
	if len(v.Plan.jobs) != len(v.Queue)-len(want) {
		t.Fatalf("plan keeps %d jobs, want the %d not started", len(v.Plan.jobs), len(v.Queue)-len(want))
	}
	// None of the decided jobs left the queue: the plan no longer matches
	// it and must be built again rather than emit nothing.
	sameDecisions(t, v.Now, ConservativePolicy{}.Decide(v), want)
}

// TestConservativeRefusedStartAtPlanTail: a refused start that leaves the
// planned jobs a prefix of the queue — the refused job sat behind all of
// them — must still be noticed: its reservation is in the plan as if it
// ran, and planning it again on top of that would push it back.
func TestConservativeRefusedStartAtPlanTail(t *testing.T) {
	wide, filler := rjob(1, 5, 4, 0), rjob(2, 5, 2, 0)
	v := View{
		Now: 0, M: 4, Avail: 2, Speed: 1, Plan: new(Plan),
		Queue: []*workload.Job{wide, filler}, Running: []RunningInfo{{End: 10, Procs: 2}},
	}
	for round := 0; round < 3; round++ {
		sameDecisions(t, 0, ConservativePolicy{}.Decide(v), []Decision{{filler, 2}})
	}
	if len(v.Plan.jobs) != 1 || v.Plan.jobs[0] != wide || v.Plan.starts[0] != 10 {
		t.Fatalf("plan keeps %v at %v, want the wide job at 10", v.Plan.jobs, v.Plan.starts)
	}
}

// TestConservativeInexactStartInvalidates: a job due within the 1e-12
// tolerance but not exactly now (the blocking reservation ends one ULP
// late, as in a profile rebuilt after a fault) starts now all the same,
// so its real reservation is not the planned one and the plan must not
// be kept.
func TestConservativeInexactStartInvalidates(t *testing.T) {
	late := math.Nextafter(5, 6)
	first, second := rjob(1, 5, 4, 0), rjob(2, 5, 4, 0)
	v := View{
		Now: 5, M: 4, Avail: 4, Speed: 1, Plan: new(Plan),
		Queue: []*workload.Job{first, second}, Running: []RunningInfo{{End: late, Procs: 4}},
	}
	sameDecisions(t, 5, ConservativePolicy{}.Decide(v), []Decision{{first, 4}})
	if v.Plan.profile != nil {
		t.Fatalf("plan kept after a start planned at %v but made at 5", late)
	}
}

// TestConservativeSkipsUnplannableJob: a job wider than the machine
// (unreachable via Submit) is skipped and the rest of the queue planned
// as if it were not there — and the plan, which no longer covers a
// prefix of the queue, is left invalid so the next decision starts over.
func TestConservativeSkipsUnplannableJob(t *testing.T) {
	a, wide, b, c := rjob(1, 5, 4, 0), rjob(2, 5, 9, 0), rjob(3, 5, 4, 0), rjob(4, 5, 8, 0)
	pl := new(Plan)
	v := View{Now: 0, M: 8, Avail: 8, Speed: 1, Queue: []*workload.Job{a, wide, b, c}, Plan: pl}
	got := ConservativePolicy{}.Decide(v)
	sameDecisions(t, 0, got, []Decision{{a, 4}, {b, 4}})
	if pl.profile != nil || len(pl.jobs) != 0 {
		t.Fatalf("plan kept after skipping a job: %d planned jobs", len(pl.jobs))
	}
	// a and b run until 5; c, behind the skipped job, is planned from
	// scratch and starts when they finish.
	v.Queue = []*workload.Job{wide, c}
	v.Avail, v.Running = 0, []RunningInfo{{End: 5, Procs: 4}, {End: 5, Procs: 4}}
	if got := (ConservativePolicy{}).Decide(v); len(got) != 0 {
		t.Fatalf("decided %v on a full machine", describe(got))
	}
	v.Now, v.Avail, v.Running = 5, 8, nil
	sameDecisions(t, 5, ConservativePolicy{}.Decide(v), []Decision{{c, 8}})
}

// TestStartMatchesJobByPointer: two queued jobs sharing an ID (a
// migrated job meeting a local one) are distinct jobs. Backfilling the
// narrow one must dequeue it, not the wide one that precedes it in the
// queue.
func TestStartMatchesJobByPointer(t *testing.T) {
	s, err := New(des.New(), 4, 1, GreedyFitPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	blocker, wide, narrow := rjob(1, 10, 2, 0), rjob(7, 5, 4, 1), rjob(7, 5, 1, 1)
	for _, j := range []*workload.Job{blocker, wide, narrow} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	cs := s.Completions()
	if len(cs) != 3 {
		t.Fatalf("%d completions, want 3", len(cs))
	}
	validateCompletions(t, cs, 4)
	ran := map[*workload.Job]int{}
	for _, c := range cs {
		ran[c.Job]++
		switch c.Job {
		case narrow:
			if c.Procs != 1 || c.Start != 1 {
				t.Fatalf("narrow job ran on %d procs at %v, want 1 proc backfilled at 1", c.Procs, c.Start)
			}
		case wide:
			if c.Procs != 4 || c.Start != 10 {
				t.Fatalf("wide job ran on %d procs at %v, want 4 procs at 10", c.Procs, c.Start)
			}
		}
	}
	if ran[blocker] != 1 || ran[wide] != 1 || ran[narrow] != 1 {
		t.Fatalf("runs per job: blocker %d, wide %d, narrow %d, want 1 each", ran[blocker], ran[wide], ran[narrow])
	}
}
