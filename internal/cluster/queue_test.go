package cluster

import (
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/workload"
)

// slotCheck wraps a policy and checks the waiting queue's slots at every
// decision and every start (see TestQueueSlotsOnDeepStream).
type slotCheck struct {
	Policy
	t *testing.T
	s *Sim
	// arrival numbers the jobs in the order the Sim admitted them.
	arrival map[*workload.Job]int
	// view is the last decision's View.Queue as lent, slots a copy of it
	// taken then, with a hole punched for every start since.
	view, slots []*workload.Job
	// holed counts the decisions that saw a hole, backfills the starts
	// of a job with another queued ahead of it.
	holed, backfills int
}

// slotSlack is the c of len(View.Queue) <= 2·live + c: 0, because the
// Sim tidies the queue before every decision.
const slotSlack = 0

func (p *slotCheck) Decide(v View) []Decision {
	t, s := p.t, p.s
	live, last := 0, -1
	var work float64
	for _, j := range v.Queue {
		if j == nil {
			continue
		}
		live++
		if a := p.arrival[j]; a <= last {
			t.Fatalf("t=%v: job %d (arrival %d) queued behind arrival %d", v.Now, j.ID, a, last)
		} else {
			last = a
		}
		w, _ := j.MinWork(s.M)
		work += w
	}
	if len(v.Queue) > 2*live+slotSlack {
		t.Fatalf("t=%v: %d slots for %d queued jobs", v.Now, len(v.Queue), live)
	}
	if n := len(v.Queue); n > 0 && (v.Queue[0] == nil || v.Queue[n-1] == nil) {
		t.Fatalf("t=%v: a hole at an end of the queue: slots 0 and %d hold %v and %v", v.Now, n-1, v.Queue[0], v.Queue[n-1])
	}
	if live < len(v.Queue) {
		p.holed++
	}
	queued := s.Queued()
	if s.QueueLength() != live || s.Load().Queued != live || len(queued) != live ||
		!slices.Equal(queued, slices.DeleteFunc(slices.Clone(v.Queue), func(j *workload.Job) bool { return j == nil })) {
		t.Fatalf("t=%v: %d jobs queued; QueueLength %d, Load().Queued %d, Queued() %d jobs or not in queue order",
			v.Now, live, s.QueueLength(), s.Load().Queued, len(queued))
	}
	if got := s.QueuedWork(); got != work {
		t.Fatalf("t=%v: QueuedWork %v, the jobs queued hold %v", v.Now, got, work)
	}
	p.view, p.slots = v.Queue, append(p.slots[:0], v.Queue...)
	return p.Policy.Decide(v)
}

// started requires every job queued at the last decision and not started
// since to be where View.Queue showed it.
func (p *slotCheck) started(j *workload.Job, _ int, now float64) {
	k := slices.Index(p.slots, j)
	if k < 0 {
		p.t.Fatalf("t=%v: job %d started and was not in the last decision's queue", now, j.ID)
	}
	p.slots[k] = nil
	if slices.ContainsFunc(p.slots[:k], func(q *workload.Job) bool { return q != nil }) {
		p.backfills++
	}
	for i, q := range p.slots {
		if p.view[i] != q {
			p.t.Fatalf("t=%v: after job %d started from slot %d, View.Queue[%d] holds %v, not the job it held", now, j.ID, k, i, p.view[i])
		}
	}
}

// TestQueueSlotsOnDeepStream runs the deep benchmarks' stream
// (MixedSource, M = 64, seed 7, rate 2) under every shipped policy and
// requires at every decision: at most 2·live + slotSlack slots for live
// queued jobs, no hole at either end, the jobs in arrival order, and
// QueueLength, Queued, Load().Queued and QueuedWork counting the jobs,
// not the holes; and at every start, every other job queued at the
// decision still in its View.Queue slot. The backfilling policies must have backfilled and
// decided on views with holes.
func TestQueueSlotsOnDeepStream(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		n      int
	}{
		{FCFSPolicy{}, 1000}, {EASYPolicy{}, 1000}, {GreedyFitPolicy{}, 1000}, {ConservativePolicy{}, 700},
	} {
		t.Run(tc.policy.Name(), func(t *testing.T) {
			p := &slotCheck{Policy: tc.policy, t: t, arrival: map[*workload.Job]int{}}
			s, err := New(des.New(), 64, 1, p, KillNewest)
			if err != nil {
				t.Fatal(err)
			}
			p.s = s
			s.OnLocalSubmit = func(j *workload.Job, _ float64) { p.arrival[j] = len(p.arrival) }
			s.OnLocalStart = p.started
			src := workload.MixedSource(workload.GenConfig{N: tc.n, M: 64, Seed: 7, ArrivalRate: 2, RigidFraction: 0.5})
			if err := s.Stream(src); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if _, fcfs := tc.policy.(FCFSPolicy); !fcfs && (p.backfills == 0 || p.holed == 0) {
				t.Fatalf("%d backfill starts, %d decisions on a queue with holes", p.backfills, p.holed)
			}
			t.Logf("%d backfill starts, %d decisions on a queue with holes", p.backfills, p.holed)
		})
	}
}

// slotNames wraps a policy and holds every decision it returns to
// requirePositions: the job's slot, and the job's lane entry, under its
// slot number, where the decision names one. A backfill of a policy that
// searches the index must name one (see TestDecisionsNameTheirSlots).
type slotNames struct {
	Policy
	t *testing.T
	// backfills counts the decisions of a job with a job queued ahead of
	// it that the decision does not start first.
	backfills int
}

func (p *slotNames) Decide(v View) []Decision {
	ds := p.Policy.Decide(v)
	requirePositions(p.t, v, ds)
	_, easy := p.Policy.(EASYPolicy)
	_, greedy := p.Policy.(GreedyFitPolicy)
	for i, d := range ds {
		if !slices.ContainsFunc(v.Queue[:d.at-1], func(j *workload.Job) bool {
			return j != nil && !slices.ContainsFunc(ds[:i], func(e Decision) bool { return e.Job == j })
		}) {
			continue
		}
		p.backfills++
		if (easy || greedy) && d.pos == 0 {
			p.t.Fatalf("t=%v: job %d, backfilled from slot %d, names no lane position", v.Now, d.Job.ID, d.at-1)
		}
	}
	return ds
}

// TestDecisionsNameTheirSlots runs every shipped policy, wrapped in
// slotNames, over the deep benchmarks' stream (MixedSource, M = 64, seed
// 7, rate 2), where the queue is compacted — renumbered — several times,
// and over churnTwoClusters, whose steals and kills trim the queue's tail
// and queue jobs under the numbers the trim freed. The backfilling
// policies must have backfilled, and compacted the deep queue.
func TestDecisionsNameTheirSlots(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		n      int
	}{
		{FCFSPolicy{}, 7000}, {EASYPolicy{}, 7000}, {GreedyFitPolicy{}, 7000}, {ConservativePolicy{}, 700},
	} {
		t.Run(tc.policy.Name(), func(t *testing.T) {
			p := &slotNames{Policy: tc.policy, t: t}
			s, err := New(des.New(), 64, 1, p, KillNewest)
			if err != nil {
				t.Fatal(err)
			}
			src := workload.MixedSource(workload.GenConfig{N: tc.n, M: 64, Seed: 7, ArrivalRate: 2, RigidFraction: 0.5})
			if err := s.Stream(src); err != nil {
				t.Fatal(err)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			churn := &slotNames{Policy: tc.policy, t: t}
			for seed := uint64(1); seed <= 20; seed++ {
				if _, ok := churnTwoClusters(t, seed, [2]Policy{churn, churn}, map[string]int{}, nil); !ok {
					t.Fatalf("seed %d: not every job completed", seed)
				}
			}
			// FCFS starts heads only, so its queue has holes only at the front.
			if _, fcfs := tc.policy.(FCFSPolicy); !fcfs && (p.backfills == 0 || churn.backfills == 0 || len(s.queue.renum) == 0) {
				t.Fatalf("%d backfills on the deep stream, %d under churn; deep queue compacted: %v", p.backfills, churn.backfills, len(s.queue.renum) > 0)
			}
		})
	}
}
