package cluster

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// crashAt schedules s.Crash(procs, until) at time at.
func crashAt(t *testing.T, s *Sim, at float64, procs int, until float64) {
	t.Helper()
	if err := s.DES.At(at, func() {
		if err := s.Crash(procs, until); err != nil {
			t.Errorf("crash: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashAtFinishInstant: a crash scheduled before the simulation
// starts shares a timestamp with the victim's own finish event. The
// crash event was enqueued first, so it fires first, kills the job and
// requeues it; the stale finish event must no-op (no double completion,
// no phantom free capacity).
func TestCrashAtFinishInstant(t *testing.T) {
	s, err := New(des.New(), 4, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	// Crash enqueued before the job arrives: same fire time as the
	// finish event, smaller sequence number.
	crashAt(t, s, 10, 4, 20)
	if err := s.Submit(rjob(1, 10, 4, 0)); err != nil { // runs [0,10)
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	cs := s.Completions()
	if len(cs) != 1 {
		t.Fatalf("completions = %d, want 1", len(cs))
	}
	if cs[0].End <= 20 {
		t.Fatalf("job finished at %v, want after the repair at 20", cs[0].End)
	}
	fs := s.FaultStats()
	if fs.Requeues != 1 || fs.Crashes != 1 || fs.Repairs != 1 {
		t.Fatalf("fault stats = %+v, want 1 requeue, 1 crash, 1 repair", fs)
	}
	if fs.LostWork != 40 { // 4 procs × 10 s at speed 1
		t.Fatalf("lost work = %v, want 40", fs.LostWork)
	}
	validateCompletions(t, cs, 4)
}

// TestCrashDuringDrain: capacity disappears while a deep queue is still
// draining. Every job must complete anyway and the schedule must stay
// feasible against the shrunken width.
func TestCrashDuringDrain(t *testing.T) {
	s, err := New(des.New(), 4, 1, EASYPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*workload.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, rjob(i+1, 10, 2, 0)) // 6 sequential waves of 2
	}
	if err := submitAll(s, jobs); err != nil {
		t.Fatal(err)
	}
	crashAt(t, s, 15, 2, 35)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	cs := s.Completions()
	if len(cs) != len(jobs) {
		t.Fatalf("completions = %d, want %d", len(cs), len(jobs))
	}
	validateCompletions(t, cs, 4)
	// During [15, 35) only 2 processors were up: no two jobs may overlap
	// inside the window.
	for i, a := range cs {
		for _, b := range cs[i+1:] {
			ai := a.Start < 35 && a.End > 15
			bi := b.Start < 35 && b.End > 15
			if ai && bi && a.Start < b.End && b.Start < a.End {
				t.Fatalf("jobs %d and %d overlap inside the outage window", a.Job.ID, b.Job.ID)
			}
		}
	}
}

// TestRepairWithEmptyQueue: a crash/repair cycle on an idle cluster must
// leave the DES drainable and the counters exact.
func TestRepairWithEmptyQueue(t *testing.T) {
	s, err := New(des.New(), 8, 1, EASYPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(rjob(1, 5, 2, 0)); err != nil { // done at 5
		t.Fatal(err)
	}
	crashAt(t, s, 10, 3, 40)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	fs := s.FaultStats()
	if fs.Crashes != 1 || fs.Repairs != 1 || fs.Requeues != 0 {
		t.Fatalf("fault stats = %+v, want 1 crash, 1 repair, 0 requeues", fs)
	}
	if fs.DownProcSeconds != 3*30 {
		t.Fatalf("down proc-seconds = %v, want 90", fs.DownProcSeconds)
	}
	if s.avail != 8 {
		t.Fatalf("avail = %d after repair, want 8", s.avail)
	}
}

// TestFullOutageNeverDeadlocks: a 100%-capacity outage mid-run requeues
// everything; the cluster must come back and finish the workload rather
// than wedge (the repair reschedule path).
func TestFullOutageNeverDeadlocks(t *testing.T) {
	s, err := New(des.New(), 4, 1, EASYPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []*workload.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, rjob(i+1, 20, 2, float64(i)))
	}
	if err := submitAll(s, jobs); err != nil {
		t.Fatal(err)
	}
	crashAt(t, s, 10, 4, 50) // whole cluster down
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	cs := s.Completions()
	if len(cs) != len(jobs) {
		t.Fatalf("completions = %d, want %d", len(cs), len(jobs))
	}
	for _, c := range cs {
		if c.Start >= 10 && c.Start < 50 {
			t.Fatalf("job %d started at %v inside the full outage", c.Job.ID, c.Start)
		}
	}
	if s.avail != 4 {
		t.Fatalf("avail = %d after repair, want 4", s.avail)
	}
	validateCompletions(t, cs, 4)
}

// TestSetAvailabilityTrace: a piecewise trace shrinks then restores the
// width; backfill plans must tolerate the loss and the downtime integral
// must match the trace exactly.
func TestSetAvailabilityTrace(t *testing.T) {
	s, err := New(des.New(), 8, 1, EASYPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Submit(rjob(i+1, 10, 4, 0)); err != nil {
			t.Fatal(err)
		}
	}
	_ = s.DES.At(5, func() { s.SetAvailability(4) })
	_ = s.DES.At(25, func() { s.SetAvailability(8) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	cs := s.Completions()
	if len(cs) != 8 {
		t.Fatalf("completions = %d, want 8", len(cs))
	}
	validateCompletions(t, cs, 8)
	fs := s.FaultStats()
	if fs.DownProcSeconds != 4*20 {
		t.Fatalf("down proc-seconds = %v, want 80", fs.DownProcSeconds)
	}
}

// TestCrashValidation: malformed crash calls must be rejected.
func TestCrashValidation(t *testing.T) {
	s, err := New(des.New(), 4, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Crash(0, 10); err == nil {
		t.Fatal("crash of 0 procs accepted")
	}
	if err := s.Crash(2, 0); err == nil {
		t.Fatal("crash with repair time in the past accepted")
	}
}

// beKillOrder runs one loaded best-effort scenario and records the
// eviction order (task number and resubmit generation of each victim).
func beKillOrder(t *testing.T, kill KillPolicy, seed uint64) []string {
	t.Helper()
	s, err := New(des.New(), 8, 1, EASYPolicy{}, kill)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	s.OnBEKilled = func(bt BETask) {
		order = append(order, fmt.Sprintf("%d.%d", bt.BagID, bt.Resubmits))
		s.SubmitBestEffort(bt) // drift back, so tasks can die repeatedly
	}
	rng := stats.NewRNG(seed)
	for k := 0; k < 40; k++ {
		dur := rng.Range(20, 200)
		if k%4 == 0 {
			dur = 50 // deliberate ties: equal remaining work across victims
		}
		s.SubmitBestEffort(BETask{BagID: k, Duration: dur})
	}
	for i := 0; i < 12; i++ {
		if err := s.Submit(rjob(i+1, 30, 4, float64(10*i))); err != nil {
			t.Fatal(err)
		}
	}
	crashAt(t, s, 35, 4, 90)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) == 0 {
		t.Fatal("scenario produced no best-effort kills")
	}
	return order
}

// TestKillPolicyDeterminism: for a fixed seed, the best-effort eviction
// order — including ties in remaining work — must be bit-identical
// across runs for both kill policies. This is the property the parallel
// experiment runner and the golden tables rely on.
func TestKillPolicyDeterminism(t *testing.T) {
	policies := map[string]KillPolicy{
		"newest":            KillNewest,
		"largest-remaining": KillLargestRemaining,
	}
	for name, kp := range policies {
		t.Run(name, func(t *testing.T) {
			first := beKillOrder(t, kp, 7)
			for run := 0; run < 3; run++ {
				again := beKillOrder(t, kp, 7)
				if len(again) != len(first) {
					t.Fatalf("run %d: %d kills, want %d", run, len(again), len(first))
				}
				for i := range first {
					if first[i] != again[i] {
						t.Fatalf("run %d: kill %d is %s, want %s", run, i, again[i], first[i])
					}
				}
			}
		})
	}
}

// TestRedistributedCounting: a task killed and resubmitted counts one
// redistribution per resubmission.
func TestRedistributedCounting(t *testing.T) {
	s, err := New(des.New(), 4, 1, EASYPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	s.OnBEKilled = func(bt BETask) { s.SubmitBestEffort(bt) }
	s.SubmitBestEffort(BETask{BagID: 0, Duration: 100})
	if err := s.Submit(rjob(1, 10, 4, 5)); err != nil { // evicts the task at t=5
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := s.BestEffort()
	if st.Killed != 1 || st.Redistributed != 1 || st.Completed != 1 {
		t.Fatalf("best-effort stats = %+v, want 1 killed, 1 redistributed, 1 completed", st)
	}
}

// TestCancelledRunRecordNotReusedEarly: a job killed by a crash leaves its
// finish event in the heap, bound to its run record. Until that event has
// fired the record must sit out — handed to a job started in between, it
// would finish that job when the stale event fires — and when it fires it
// must complete nothing. Afterwards the record is free like any other.
func TestCancelledRunRecordNotReusedEarly(t *testing.T) {
	s, err := New(des.New(), 4, 1, EASYPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	at := func(when float64, fn func()) {
		t.Helper()
		if err := s.DES.At(when, fn); err != nil {
			t.Fatal(err)
		}
	}
	// a runs [0,10) until the crash at 1 kills it; the repair at 2 restarts
	// it as [2,12). b [3,6) and c [7,9) start, and b finishes, while a's
	// stale event (t=10) is pending; d starts at 11, after it.
	a, b, c, d := rjob(1, 10, 2, 0), rjob(2, 3, 2, 3), rjob(3, 2, 1, 7), rjob(4, 1, 1, 11)
	for _, j := range []*workload.Job{a, b, c, d} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	var victim *localRunning
	at(0.5, func() { victim = s.running[0] })
	at(1, func() {
		if err := s.Crash(3, 2); err != nil {
			t.Error(err)
		}
		if !victim.cancelled || s.RunningCount() != 0 {
			t.Errorf("crash left %d jobs running (victim cancelled: %v)", s.RunningCount(), victim.cancelled)
		}
	})
	starts := 0
	s.OnLocalStart = func(j *workload.Job, _ int, now float64) {
		starts++
		inUse := slices.Contains(s.running, victim)
		if now > 1 && now < 10 && (inUse || slices.Contains(s.runFree, victim)) {
			t.Errorf("t=%v: job %d started; the killed job's record, its finish event still pending, is running: %v", now, j.ID, inUse)
		}
	}
	s.OnLocalDone = func(c metrics.Completion) {
		if now := s.DES.Now(); now != c.End {
			t.Errorf("job %d, due at %v, completed at %v", c.Job.ID, c.End, now)
		}
	}
	at(10.5, func() {
		if !slices.Contains(s.runFree, victim) {
			t.Error("the stale finish event has fired and the record is not free")
		}
		if s.RunningCount() != 1 || s.CompletedCount() != 2 {
			t.Errorf("t=10.5: %d running, %d completed; want a still running, b and c done", s.RunningCount(), s.CompletedCount())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := map[*workload.Job][2]float64{a: {2, 12}, b: {3, 6}, c: {7, 9}, d: {11, 12}}
	cs := s.Completions()
	if len(cs) != len(want) || starts != len(want)+1 {
		t.Fatalf("%d completions, %d starts; want %d and one more", len(cs), starts, len(want))
	}
	for _, c := range cs {
		if w := want[c.Job]; c.Start != w[0] || c.End != w[1] {
			t.Fatalf("job %d ran [%v,%v), want [%v,%v)", c.Job.ID, c.Start, c.End, w[0], w[1])
		}
	}
	validateCompletions(t, cs, 4)
}

// TestKillOneLocalTieBreak: a capacity loss kills the latest start, then
// the larger job ID, and among records of one start and one ID — jobs
// that share an ID, as migrated and injected ones may — the one started
// first. A finish that moves the last running record into the vacated
// slot must not change that choice, nor Running's start order.
func TestKillOneLocalTieBreak(t *testing.T) {
	s, err := New(des.New(), 6, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := rjob(5, 1, 2, 0), rjob(7, 10, 2, 0), rjob(7, 10, 2, 0)
	var killed []*workload.Job
	s.OnLocalKilled = func(j *workload.Job, _ int, _ float64) { killed = append(killed, j) }
	for _, j := range []*workload.Job{a, b, c} {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DES.At(2, func() {
		// a finished at 1, and c took its slot in the running set.
		if got := s.Running(); !slices.Equal(got, []*workload.Job{b, c}) {
			t.Errorf("Running() = %v, want b then c in start order", got)
		}
		if err := s.Crash(4, 3); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(killed) != 1 || killed[0] != b {
		t.Fatalf("killed %v, want only b (%p), started before c (%p) with the same start and ID", killed, b, c)
	}
}
