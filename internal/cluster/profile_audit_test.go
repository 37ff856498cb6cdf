package cluster

// Property tests for the incremental resource-profile engine: the
// persistent profile the simulator maintains across start/finish events
// must at every decision point be semantically identical to a profile
// rebuilt from scratch out of the running set — the invariant that lets
// policies skip the rebuild.

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/rigid"
	"repro/internal/stats"
)

// auditPolicy wraps a policy and cross-checks View.Profile against a
// from-scratch rebuild before every decision.
type auditPolicy struct {
	t     *testing.T
	inner Policy
	hits  *int
}

func (p auditPolicy) Name() string { return p.inner.Name() }

func (p auditPolicy) Decide(v View) []Decision {
	*p.hits++
	if v.Profile == nil {
		p.t.Error("view missing persistent profile")
		return p.inner.Decide(v)
	}
	ref := rigid.NewProfile(v.M)
	for _, r := range v.Running {
		if r.End > v.Now {
			if err := ref.Reserve(v.Now, r.End-v.Now, r.Procs); err != nil {
				p.t.Fatalf("t=%v: rebuild from running set failed: %v", v.Now, err)
			}
		}
	}
	// Midpoints rather than breakpoints, and slivers skipped: the
	// incremental profile stores exact reservation ends, the rebuild's
	// Now + (End-Now) round trip can be off by one float step.
	sameAvailability(p.t, v.Now, v.Profile, ref, 1e-9, "incremental profile", "rebuild")
	// The persistent profile must stay trimmed and canonical: its
	// breakpoint count is bounded by running jobs + 1, not history.
	if got, limit := v.Profile.Segments(), len(v.Running)+1; got > limit {
		p.t.Fatalf("t=%v: %d segments for %d running jobs (history not trimmed/coalesced)",
			v.Now, got, len(v.Running))
	}
	bp := v.Profile.Breakpoints()
	for i := 1; i < len(bp); i++ {
		if v.Profile.AvailableAt(bp[i]) == v.Profile.AvailableAt(bp[i-1]) {
			p.t.Fatalf("t=%v: persistent profile not coalesced at %v", v.Now, bp[i])
		}
	}
	return p.inner.Decide(v)
}

// sameAvailability requires two profiles to have the same availability
// inside every segment of either from now on (piecewise-constant ⇒ one
// midpoint sample per segment). Segments no longer than sliver, relative
// to their start, are skipped.
func sameAvailability(t *testing.T, now float64, got, want *rigid.Profile, sliver float64, gotName, wantName string) {
	t.Helper()
	pts := append(got.Breakpoints(), want.Breakpoints()...)
	pts = append(pts, now)
	sort.Float64s(pts)
	for i, t0 := range pts {
		if t0 < now {
			continue
		}
		sample := t0 + 1 // beyond the last breakpoint
		if i+1 < len(pts) {
			if pts[i+1]-t0 <= sliver*(1+math.Abs(t0)) {
				continue
			}
			sample = (t0 + pts[i+1]) / 2
		}
		if g, w := got.AvailableAt(sample), want.AvailableAt(sample); g != w {
			t.Fatalf("t=%v: %s has %d free at %v, %s has %d", now, gotName, g, sample, wantName, w)
		}
	}
}

// TestIncrementalProfileMatchesRebuild drives randomized workloads —
// local jobs plus best-effort churn forcing kills and refills — through
// every queue policy with the audit wrapper attached.
func TestIncrementalProfileMatchesRebuild(t *testing.T) {
	for _, inner := range []Policy{ConservativePolicy{}, EASYPolicy{}, FCFSPolicy{}, GreedyFitPolicy{}} {
		inner := inner
		t.Run(inner.Name(), func(t *testing.T) {
			f := func(seed uint64) bool {
				rng := stats.NewRNG(seed)
				m := rng.IntRange(2, 16)
				n := rng.IntRange(1, 20)
				hits := 0
				s, err := New(des.New(), m, 1, auditPolicy{t: t, inner: inner, hits: &hits}, KillNewest)
				if err != nil {
					return false
				}
				for i := 0; i < 25; i++ {
					s.SubmitBestEffort(BETask{BagID: 1, Index: i, Duration: rng.Range(1, 15)})
				}
				clock := 0.0
				for i := 0; i < n; i++ {
					clock += rng.Exp(0.3)
					if err := s.Submit(rjob(i, rng.Range(0.5, 12), rng.IntRange(1, m), clock)); err != nil {
						return false
					}
				}
				if err := s.Run(); err != nil {
					return false
				}
				return hits > 0 && len(s.Completions()) == n
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// viewSpy runs inner and hands every view to check first.
type viewSpy struct {
	inner Policy
	check func(v View)
}

func (p viewSpy) Name() string { return p.inner.Name() }

func (p viewSpy) Decide(v View) []Decision {
	p.check(v)
	return p.inner.Decide(v)
}

// requireLiveView fails unless v is made of s's own state and nothing
// copied: the live queue and running list, the kept index, plan and
// profile, and the decision scratch, empty and zeroed — and unless
// v.Running says of the running set what Sim.Running says, in its order.
func requireLiveView(t *testing.T, s *Sim, v View) {
	t.Helper()
	if len(v.Queue) != len(s.queue) || (len(v.Queue) > 0 && &v.Queue[0] != &s.queue[0]) {
		t.Fatalf("t=%v: View.Queue is not the live queue", v.Now)
	}
	if len(v.Running) != len(s.viewRunning) || (len(v.Running) > 0 && &v.Running[0] != &s.viewRunning[0]) {
		t.Fatalf("t=%v: View.Running is not the live running list", v.Now)
	}
	if v.Index != &s.index || v.Plan != &s.plan || v.Profile != s.profile {
		t.Fatalf("t=%v: view does not carry the simulator's index, plan and profile", v.Now)
	}
	want := s.Running()
	if len(v.Running) != len(want) {
		t.Fatalf("t=%v: View.Running lists %d jobs, %d are running", v.Now, len(v.Running), len(want))
	}
	for i, r := range want {
		if v.Running[i] != (RunningInfo{End: r.End, Procs: r.Procs}) {
			t.Fatalf("t=%v: View.Running[%d] = %+v, running job %d has %d processors until %v",
				v.Now, i, v.Running[i], r.Job.ID, r.Procs, r.End)
		}
	}
	if s.decisions != nil || len(v.Scratch) != 0 || decisionsHeld(v.Scratch) != 0 {
		t.Fatalf("t=%v: scratch lent at length %d with %d decisions left in it (the Sim still holds one: %v)",
			v.Now, len(v.Scratch), decisionsHeld(v.Scratch), s.decisions != nil)
	}
}

// TestViewBuffersReused: a decision copies nothing — View.Queue and
// View.Running are the simulator's own slices, edited where the queue and
// the running set are — and the memory behind them and behind the lent
// decision scratch stops moving once it has held the largest set.
func TestViewBuffersReused(t *testing.T) {
	var s *Sim
	views := 0
	moved := map[string]int{}
	last := map[string]any{}
	moves := func(what string, first any) {
		if last[what] != first {
			last[what] = first
			moved[what]++
		}
	}
	spy := viewSpy{inner: FCFSPolicy{}, check: func(v View) {
		views++
		requireLiveView(t, s, v)
		if len(v.Running) > 0 {
			moves("View.Running", &v.Running[0])
		}
		if cap(v.Scratch) > 0 {
			moves("View.Scratch", &v.Scratch[:1][0])
		}
	}}
	s, err := New(des.New(), 4, 1, spy, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := s.Submit(rjob(i, 2, 1, float64(i)/2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.Completions()) != 30 {
		t.Fatalf("%d completions", len(s.Completions()))
	}
	// Four jobs run at once: the running list grows 1, 2, 4 and stays. One
	// job starts per decision: the scratch is allocated once.
	if views < 60 || moved["View.Running"] == 0 || moved["View.Running"] > 3 || moved["View.Scratch"] != 1 {
		t.Fatalf("%d views, moved: %v", views, moved)
	}
}

// TestViewIsLiveUnderChurn: the same, at every decision of clusters that
// crash, steal, migrate and evict — the running list is edited at each of
// the three places the running set is (start, finish, crash kill) and
// never rebuilt, so one place missed shows as a job too many or too few.
func TestViewIsLiveUnderChurn(t *testing.T) {
	views, kills := 0, 0
	for _, inner := range []Policy{EASYPolicy{}, ConservativePolicy{}} {
		for seed := uint64(1); seed <= 40; seed++ {
			var bound []*Sim
			spies := [2]Policy{}
			for c := range spies {
				spies[c] = viewSpy{inner: inner, check: func(v View) {
					views++
					requireLiveView(t, bound[c], v)
				}}
			}
			sims, ok := churnTwoClusters(t, seed, spies, func(s *Sim) { bound = append(bound, s) })
			if !ok {
				t.Fatalf("%s, seed %d: not every job completed", inner.Name(), seed)
			}
			kills += sims[0].FaultStats().Requeues + sims[1].FaultStats().Requeues
		}
	}
	if kills == 0 {
		t.Fatal("no running job was killed: the crash path was not exercised")
	}
	t.Logf("%d views checked, %d running jobs killed", views, kills)
}
