package cluster

// Conservative backfilling on decision points built with testView: the
// corners of the kept plan that the fault harness of
// TestSimMatchesReference reaches only by chance.

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/workload"
)

// TestConservativePlanOneShot: a fresh plan decides what the whole-queue
// plan of the reference decides, and a plan asked again on the same view
// — none of the decided jobs left the queue — is rebuilt rather than emit
// nothing.
func TestConservativePlanOneShot(t *testing.T) {
	v := benchView(50, 20, 64)
	want, _, plan := pointOf(v).conservative()
	plan.Recycle()
	if len(want) == 0 {
		t.Fatal("reference decided nothing")
	}
	sameDecisions(t, v.Now, ConservativePolicy{}.Decide(v), want)
	if len(v.Plan.heap) != len(v.Queue)-len(want) {
		t.Fatalf("plan keeps %d jobs, want the %d not started", len(v.Plan.heap), len(v.Queue)-len(want))
	}
	sameDecisions(t, v.Now, ConservativePolicy{}.Decide(v), want)
}

// TestConservativeRefusedStartAtPlanTail: a refused start that leaves the
// planned jobs a prefix of the queue — the refused job sat behind all of
// them — must still be noticed: its reservation is in the plan as if it
// ran, and planning it again on top of that would push it back. So must
// the refusal of the second of two due jobs after the first started.
func TestConservativeRefusedStartAtPlanTail(t *testing.T) {
	wide, f1, f2 := rjob(1, 5, 4, 0), rjob(2, 5, 1, 0), rjob(3, 5, 1, 0)
	v := testView(0, 4, 1, 2, []*workload.Job{wide, f1, f2}, busy{10, 2})
	for round := 0; round < 3; round++ {
		sameDecisions(t, 0, ConservativePolicy{}.Decide(v), []Decision{{Job: f1, Procs: 1}, {Job: f2, Procs: 1}})
	}
	if len(v.Plan.heap) != 1 || v.Plan.heap[0] != (planned{10, 1}) {
		t.Fatalf("plan keeps %+v, want the wide job (slot number 1) at 10", v.Plan.heap)
	}
	pl := v.Plan
	v = testView(0, 4, 1, 1, []*workload.Job{wide, nil, f2}, busy{10, 2}, busy{5, 1})
	v.Plan = pl
	sameDecisions(t, 0, ConservativePolicy{}.Decide(v), []Decision{{Job: f2, Procs: 1}})
}

// TestConservativeInexactStartInvalidates: a job due within the 1e-12
// tolerance but not exactly now (the blocking reservation ends one ULP
// after now) starts now all the same,
// so its real reservation is not the planned one and the plan must not
// be kept.
func TestConservativeInexactStartInvalidates(t *testing.T) {
	late := math.Nextafter(5, 6)
	first, second := rjob(1, 5, 4, 0), rjob(2, 5, 4, 0)
	v := testView(5, 4, 1, 4, []*workload.Job{first, second}, busy{late, 4})
	sameDecisions(t, 5, ConservativePolicy{}.Decide(v), []Decision{{Job: first, Procs: 4}})
	if v.Plan.profile != nil {
		t.Fatalf("plan kept after a start planned at %v but made at 5", late)
	}
}

// TestConservativeDueInQueueOrder: the jobs due now start in queue
// order, whatever their planned starts within the tolerance. On 4
// processors 2 are held until one ULP after now; the first job (3 wide)
// is planned then, the second (1 wide) now beside it, and both are due.
func TestConservativeDueInQueueOrder(t *testing.T) {
	late := math.Nextafter(5, 6)
	first, second := rjob(1, 5, 3, 0), rjob(2, 5, 1, 0)
	v := testView(5, 4, 1, 2, []*workload.Job{first, second}, busy{late, 2})
	sameDecisions(t, 5, ConservativePolicy{}.Decide(v), []Decision{{Job: first, Procs: 3}, {Job: second, Procs: 1}})
}

// TestConservativePlanInThePastReplans: a plan whose earliest start has
// passed without a decision is planned again. On 4 processors held until
// 5, A and B (4 wide, 5 long) are planned at 5 and 10; asked next at 11,
// on an idle machine, the kept plan would find both due, the plan made
// again A alone.
func TestConservativePlanInThePastReplans(t *testing.T) {
	a, b := rjob(1, 5, 4, 0), rjob(2, 5, 4, 0)
	v := testView(0, 4, 1, 0, []*workload.Job{a, b}, busy{5, 4})
	pl := v.Plan
	if got := (ConservativePolicy{}).Decide(v); len(got) != 0 {
		t.Fatalf("decided %v on a full machine", describe(got))
	}
	v = testView(11, 4, 1, 4, []*workload.Job{a, b})
	v.Plan = pl
	sameDecisions(t, 11, ConservativePolicy{}.Decide(v), []Decision{{Job: a, Procs: 4}})
}

// TestConservativeSkipsUnplannableJob: a job wider than the machine
// (unreachable via Submit) is skipped and the rest of the queue planned
// as if it were not there — and the plan, which no longer covers a
// prefix of the queue, is left invalid so the next decision starts over.
func TestConservativeSkipsUnplannableJob(t *testing.T) {
	a, wide, b, c := rjob(1, 5, 4, 0), rjob(2, 5, 9, 0), rjob(3, 5, 4, 0), rjob(4, 5, 8, 0)
	v := testView(0, 8, 1, 8, []*workload.Job{a, wide, b, c})
	pl := v.Plan
	sameDecisions(t, 0, ConservativePolicy{}.Decide(v), []Decision{{Job: a, Procs: 4}, {Job: b, Procs: 4}})
	if pl.profile != nil || len(pl.heap) != 0 {
		t.Fatalf("plan kept after skipping a job: %d planned jobs", len(pl.heap))
	}
	// a and b run until 5; c, behind the skipped job, is planned from
	// scratch and starts when they finish.
	v = testView(0, 8, 1, 0, []*workload.Job{nil, wide, nil, c}, busy{5, 4}, busy{5, 4})
	v.Plan = pl
	if got := (ConservativePolicy{}).Decide(v); len(got) != 0 {
		t.Fatalf("decided %v on a full machine", describe(got))
	}
	v = testView(5, 8, 1, 8, []*workload.Job{nil, wide, nil, c})
	v.Plan = pl
	sameDecisions(t, 5, ConservativePolicy{}.Decide(v), []Decision{{Job: c, Procs: 8}})
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
