package cluster

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func rjob(id int, dur float64, procs int, release float64) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1, Release: release,
		SeqTime: dur * float64(procs), MinProcs: procs, MaxProcs: procs,
		Model: workload.Linear{},
	}
}

func runSim(t *testing.T, m int, speed float64, policy Policy, jobs []*workload.Job) *Sim {
	t.Helper()
	s, err := New(des.New(), m, speed, policy, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := submitAll(s, jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// validateCompletions re-checks the DES outcome against the static
// schedule validator.
func validateCompletions(t *testing.T, cs []metrics.Completion, m int) {
	t.Helper()
	intervals := make([]platform.Interval, len(cs))
	for i, c := range cs {
		intervals[i] = platform.Interval{Start: c.Start, End: c.End, Count: c.Procs}
		if c.Start < c.Job.Release-1e-9 {
			t.Fatalf("job %d started before release", c.Job.ID)
		}
	}
	if peak := platform.PeakDemand(intervals); peak > m {
		t.Fatalf("peak demand %d exceeds %d", peak, m)
	}
}

func TestFCFSSimple(t *testing.T) {
	jobs := []*workload.Job{
		rjob(1, 10, 4, 0), // full machine
		rjob(2, 5, 2, 0),  // must wait (FCFS head rule)
	}
	s := runSim(t, 4, 1, FCFSPolicy{}, jobs)
	cs := s.Completions()
	validateCompletions(t, cs, 4)
	for _, c := range cs {
		if c.Job.ID == 2 && c.Start < 10 {
			t.Fatalf("job 2 started at %v before job 1 finished", c.Start)
		}
	}
}

func TestFCFSNoBackfill(t *testing.T) {
	// Head (wide) blocked by a running job; a narrow later job must NOT
	// jump ahead under FCFS.
	jobs := []*workload.Job{
		rjob(1, 10, 3, 0),
		rjob(2, 5, 4, 0), // blocked head
		rjob(3, 1, 1, 0), // would fit now, FCFS must hold it
	}
	s := runSim(t, 4, 1, FCFSPolicy{}, jobs)
	for _, c := range s.Completions() {
		if c.Job.ID == 3 && c.Start < 10 {
			t.Fatalf("FCFS backfilled job 3 at %v", c.Start)
		}
	}
}

func TestEASYBackfills(t *testing.T) {
	jobs := []*workload.Job{
		rjob(1, 10, 3, 0),
		rjob(2, 5, 4, 0), // blocked head; shadow = 10
		rjob(3, 2, 1, 0), // ends at 2 <= 10: backfills
	}
	s := runSim(t, 4, 1, EASYPolicy{}, jobs)
	starts := map[int]float64{}
	for _, c := range s.Completions() {
		starts[c.Job.ID] = c.Start
	}
	if starts[3] != 0 {
		t.Fatalf("EASY did not backfill job 3 (start %v)", starts[3])
	}
	if starts[2] != 10 {
		t.Fatalf("EASY delayed the head: job 2 at %v, want 10", starts[2])
	}
	validateCompletions(t, s.Completions(), 4)
}

func TestEASYDoesNotDelayHead(t *testing.T) {
	jobs := []*workload.Job{
		rjob(1, 10, 3, 0),
		rjob(2, 5, 4, 0),  // head, shadow = 10
		rjob(3, 20, 1, 0), // ends at 20 > shadow and 1 > extra(=0): must wait
	}
	s := runSim(t, 4, 1, EASYPolicy{}, jobs)
	starts := map[int]float64{}
	for _, c := range s.Completions() {
		starts[c.Job.ID] = c.Start
	}
	if starts[2] > 10+1e-9 {
		t.Fatalf("head delayed to %v by backfilling", starts[2])
	}
}

func TestGreedyFitStartsEverythingThatFits(t *testing.T) {
	jobs := []*workload.Job{
		rjob(1, 10, 3, 0),
		rjob(2, 5, 4, 0), // doesn't fit
		rjob(3, 2, 1, 0), // fits: greedy starts it
	}
	s := runSim(t, 4, 1, GreedyFitPolicy{}, jobs)
	starts := map[int]float64{}
	for _, c := range s.Completions() {
		starts[c.Job.ID] = c.Start
	}
	if starts[3] != 0 {
		t.Fatalf("greedy did not start job 3 at 0 (start %v)", starts[3])
	}
}

func TestSpeedScalesDurations(t *testing.T) {
	jobs := []*workload.Job{rjob(1, 10, 1, 0)}
	s := runSim(t, 2, 2.0, FCFSPolicy{}, jobs)
	c := s.Completions()[0]
	if math.Abs(c.End-5) > 1e-9 {
		t.Fatalf("speed-2 cluster ran 10s job in %v, want 5", c.End)
	}
}

func TestReleaseDatesHonored(t *testing.T) {
	jobs := []*workload.Job{rjob(1, 5, 1, 100)}
	s := runSim(t, 2, 1, FCFSPolicy{}, jobs)
	if c := s.Completions()[0]; c.Start < 100 {
		t.Fatalf("started at %v before release 100", c.Start)
	}
}

func TestBestEffortFillsAndIsKilled(t *testing.T) {
	sim := des.New()
	s, err := New(sim, 4, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	var killed, done []BETask
	s.OnBEKilled = func(bt BETask) { killed = append(killed, bt) }
	s.OnBEDone = func(bt BETask) { done = append(done, bt) }

	// Grid tasks available from the start; a local job arrives at t=5
	// needing the whole machine → running BE tasks must die.
	for i := 0; i < 4; i++ {
		s.SubmitBestEffort(BETask{BagID: 1, Duration: 100})
	}
	if err := s.Submit(rjob(1, 10, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(killed) != 4 {
		t.Fatalf("%d best-effort tasks killed, want 4", len(killed))
	}
	st := s.BestEffort()
	if st.Killed != 4 || st.Completed != 0 {
		t.Fatalf("BE stats: %+v", st)
	}
	// 4 tasks ran from 0 to 5 → 20 units wasted.
	if math.Abs(st.WastedWork-20) > 1e-9 {
		t.Fatalf("wasted work %v, want 20", st.WastedWork)
	}
	// The local job must start exactly at its release (not delayed by BE).
	if c := s.Completions()[0]; c.Start != 5 {
		t.Fatalf("local job delayed to %v by best-effort work", c.Start)
	}
}

func TestBestEffortCompletesInHoles(t *testing.T) {
	sim := des.New()
	s, err := New(sim, 4, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	s.SubmitBestEffort(BETask{BagID: 1, Duration: 3})
	if err := s.Submit(rjob(1, 10, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.BestEffort()
	if st.Completed != 1 || st.Killed != 0 {
		t.Fatalf("BE stats: %+v", st)
	}
	if st.DoneWork != 3 {
		t.Fatalf("done work %v", st.DoneWork)
	}
}

func TestKillNewestVsLargest(t *testing.T) {
	run := func(kp KillPolicy) BEStats {
		sim := des.New()
		s, err := New(sim, 2, 1, FCFSPolicy{}, kp)
		if err != nil {
			t.Fatal(err)
		}
		// Long task starts first, short second; local 1-proc job at t=1
		// forces one kill.
		s.SubmitBestEffort(BETask{BagID: 0, Duration: 100})
		s.SubmitBestEffort(BETask{BagID: 0, Duration: 2})
		if err := s.Submit(rjob(1, 5, 1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.BestEffort()
	}
	// KillNewest kills the short task (fifo order: long got seq 0);
	// KillLargestRemaining kills the long one.
	newest := run(KillNewest)
	largest := run(KillLargestRemaining)
	if newest.Killed != 1 || largest.Killed != 1 {
		t.Fatalf("kills: newest=%+v largest=%+v", newest, largest)
	}
	if !(largest.DoneWork < newest.DoneWork) {
		t.Fatalf("largest-remaining should lose the long task: newest=%+v largest=%+v",
			newest, largest)
	}
}

func TestStealQueued(t *testing.T) {
	sim := des.New()
	s, err := New(sim, 2, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the machine so later jobs stay queued.
	if err := s.Submit(rjob(1, 50, 2, 0)); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 4; i++ {
		if err := s.Submit(rjob(i, 5, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	if got := s.QueueLength(); got != 3 {
		t.Fatalf("queue length %d, want 3", got)
	}
	if w := s.QueuedWork(); w != 15 {
		t.Fatalf("queued work %v, want 15", w)
	}
	stolen := s.StealQueued(2)
	if len(stolen) != 2 || stolen[0].ID != 3 || stolen[1].ID != 4 {
		t.Fatalf("stole %v", stolen)
	}
	// Remaining sim must still complete consistently.
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.Completions()) != 2 {
		t.Fatalf("%d completions, want 2 (one running + one queued kept)", len(s.Completions()))
	}
}

// TestSubmitReleasedInPast: a job released before now (a migration
// arrival, or one routed at its release event) is admitted at now, not
// at its release date.
func TestSubmitReleasedInPast(t *testing.T) {
	sim := des.New()
	s, err := New(sim, 2, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	j := rjob(1, 5, 1, 0) // released long ago on another cluster
	if err := s.Submit(j); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	c := s.Completions()[0]
	if c.Start != 10 {
		t.Fatalf("job released at 0 and submitted at 10 started at %v, want 10", c.Start)
	}
}

func TestOversizedSubmitRejected(t *testing.T) {
	s, err := New(des.New(), 2, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(rjob(1, 5, 4, 0)); err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(nil, 0, 1, FCFSPolicy{}, KillNewest); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := New(nil, 2, 0, FCFSPolicy{}, KillNewest); err == nil {
		t.Fatal("speed=0 accepted")
	}
	if _, err := New(nil, 2, 1, nil, KillNewest); err == nil {
		t.Fatal("nil policy accepted")
	}
}

// Property: for random rigid workloads, every policy completes all jobs
// with no capacity violation and no pre-release start, and EASY's mean
// flow is never worse than FCFS's by more than noise... EASY can in
// contrived cases lose on mean flow, so we only assert the hard
// invariants plus "EASY utilization >= FCFS utilization - epsilon" on
// makespan-equal... keep to hard invariants.
func TestPoliciesProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 16)
		n := rng.IntRange(1, 25)
		var jobs []*workload.Job
		clock := 0.0
		for i := 0; i < n; i++ {
			clock += rng.Exp(0.3)
			jobs = append(jobs, rjob(i, rng.Range(0.5, 15), rng.IntRange(1, m), clock))
		}
		for _, pol := range []Policy{FCFSPolicy{}, EASYPolicy{}, GreedyFitPolicy{}} {
			cs := runSim(t, m, 1, pol, jobs).Completions()
			validateCompletions(t, cs, m)
			if len(cs) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: best-effort tasks never delay local jobs — with and without
// grid load, local completion times are identical.
func TestBestEffortNonInterferenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 8)
		n := rng.IntRange(1, 15)
		var jobs []*workload.Job
		clock := 0.0
		for i := 0; i < n; i++ {
			clock += rng.Exp(0.2)
			jobs = append(jobs, rjob(i, rng.Range(0.5, 10), rng.IntRange(1, m), clock))
		}
		runLocal := func(withBE bool) map[int]float64 {
			s, err := New(des.New(), m, 1, EASYPolicy{}, KillNewest)
			if err != nil {
				return nil
			}
			if withBE {
				for i := 0; i < 30; i++ {
					s.SubmitBestEffort(BETask{BagID: 9, Duration: rng.Range(1, 20)})
				}
			}
			for _, j := range jobs {
				if err := s.Submit(j); err != nil {
					return nil
				}
			}
			if err := s.Run(); err != nil {
				return nil
			}
			ends := map[int]float64{}
			for _, c := range s.Completions() {
				ends[c.Job.ID] = c.End
			}
			return ends
		}
		without := runLocal(false)
		with := runLocal(true)
		if without == nil || with == nil {
			return false
		}
		for id, end := range without {
			if math.Abs(with[id]-end) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleFromCompletionsRoundTrip(t *testing.T) {
	// Cross-check: a DES run converted to a static schedule validates.
	jobs := []*workload.Job{
		rjob(1, 10, 2, 0), rjob(2, 5, 2, 0), rjob(3, 3, 1, 4),
	}
	s := runSim(t, 4, 1, EASYPolicy{}, jobs)
	st := sched.New(4)
	for _, c := range s.Completions() {
		st.Add(sched.Alloc{Job: c.Job, Start: c.Start, Procs: c.Procs})
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestViewBuffersReused: a decision copies nothing — the audit requires
// every field of every view to be the simulator's own — and the memory
// behind the lent decision scratch stops moving once it has held the
// largest decision.
func TestViewBuffersReused(t *testing.T) {
	cov := map[string]int{}
	s := auditedSim(t, 4, FCFSPolicy{}, cov)
	moved := 0
	var last *Decision
	idle := s.OnIdle
	s.OnIdle = func(free int) {
		idle(free)
		if cap(s.decisions) > 0 && &s.decisions[:1][0] != last {
			last = &s.decisions[:1][0]
			moved++
		}
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
	// One decision per instant at which a job is queued: the 30 arrivals,
	// 0.5 apart from 0, make 30. The finishes 2 later fall on an arrival's
	// instant but for the last four, which find the queue empty. At most
	// one job starts per decision: the scratch is allocated once.
	if cov["decisions"] != 30 || moved != 1 {
		t.Fatalf("%d decisions, the scratch moved %d times", cov["decisions"], moved)
	}
}

// decideOnce decides ds, once, at the first decision with n jobs queued,
// and nothing at any other.
type decideOnce struct {
	n  int
	ds []Decision
}

func (p *decideOnce) Name() string { return "once" }

func (p *decideOnce) Decide(v View) []Decision {
	if len(v.Queue) != p.n {
		return nil
	}
	ds := p.ds
	p.ds = nil
	return ds
}

// TestStartTakesTheNamedSlot: a start takes its job from the slot the
// decision's position names, which the starts before it in the same
// decision, made or refused, leave where it was. The queue holds J twice,
// so that which slot J leaves from shows: A, J, B, J is decided as a job
// that is not queued (refused), A at position 1, then J at position 4,
// the second J, still in slot 4 after A left slot 1. The first J and B
// must be left in that order. Taken from its first slot instead, as a
// search would, J would leave B, J behind.
func TestStartTakesTheNamedSlot(t *testing.T) {
	a, j, b, absent := rjob(1, 5, 1, 0), rjob(2, 5, 1, 0), rjob(3, 5, 1, 0), rjob(4, 5, 1, 0)
	pol := &decideOnce{n: 4, ds: []Decision{
		{Job: absent, Procs: 1, at: 1}, {Job: a, Procs: 1, at: 1}, {Job: j, Procs: 1, at: 4},
	}}
	s, err := New(des.New(), 4, 1, pol, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := submitAll(s, []*workload.Job{a, j, b, j}); err != nil {
		t.Fatal(err)
	}
	if err := s.DES.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	if got := s.Queued(); !slices.Equal(got, []*workload.Job{j, b}) || s.RunningCount() != 2 {
		var ids []int
		for _, q := range got {
			ids = append(ids, q.ID)
		}
		t.Fatalf("jobs %v queued and %d running, want 2 3 queued and A and J running", ids, s.RunningCount())
	}
}
