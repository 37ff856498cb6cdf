package cluster

import (
	"bytes"
	"testing"

	"repro/internal/des"
	"repro/internal/trace"
	"repro/internal/workload"
)

// countingPolicy wraps a policy and counts its Decide calls: all of
// them, those that start nothing, and those at each instant. It counts
// from the test side, so the Sim carries no counter of its own.
type countingPolicy struct {
	Policy
	calls, empty int
	at           map[float64]int
}

func (p *countingPolicy) Decide(v View) []Decision {
	d := p.Policy.Decide(v)
	p.calls++
	if len(d) == 0 {
		p.empty++
	}
	p.at[v.Now]++
	return d
}

// countDecisions runs the jobs feed admits to completion on m
// processors under the counted policy.
func countDecisions(t *testing.T, m int, policy Policy, feed func(*Sim) error) *countingPolicy {
	t.Helper()
	p := &countingPolicy{Policy: policy, at: map[float64]int{}}
	s, err := New(des.New(), m, 1, p, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDecideCountsArrivalGroup pins the decisions an arrival group
// costs: five 4-wide jobs released together at t = 1 onto 4 processors
// under EASY. Submitted, each job is its own arrival event; streamed, the
// group arrives in one event. Either way the Sim decides once at t = 1,
// after the last of them, and once at each finish but the last, which
// finds the queue empty and asks the policy nothing: five calls, each of
// which starts a job.
func TestDecideCountsArrivalGroup(t *testing.T) {
	group := func() []*workload.Job {
		jobs := make([]*workload.Job, 5)
		for i := range jobs {
			jobs[i] = rigidJob(i, 8, 4)
			jobs[i].Release = 1
		}
		return jobs
	}
	for _, tc := range []struct {
		name                string
		feed                func(*Sim, []*workload.Job) error
		calls, empty, atOne int
	}{
		{"submitted", submitAll, 5, 0, 1},
		{"streamed", func(s *Sim, jobs []*workload.Job) error { return s.Stream(&sliceSource{jobs: jobs}) }, 5, 0, 1},
	} {
		jobs := group()
		p := countDecisions(t, 4, EASYPolicy{}, func(s *Sim) error { return tc.feed(s, jobs) })
		if p.calls != tc.calls || p.empty != tc.empty || p.at[1] != tc.atOne {
			t.Fatalf("EASY on the %s arrival group: %d calls, %d empty, %d at t = 1; want %d, %d, %d",
				tc.name, p.calls, p.empty, p.at[1], tc.calls, tc.empty, tc.atOne)
		}
	}
}

// TestDecideCountsDeepQueue pins the decisions of the deep benchmarks'
// stream (MixedSource, M = 64, seed 7, rate 2) under FCFS, EASY, greedy
// fit and conservative backfilling: the calls, and the share that start
// nothing. A finish that leaves the queue empty asks the policy nothing.
func TestDecideCountsDeepQueue(t *testing.T) {
	for _, tc := range []struct {
		policy       Policy
		n            int
		calls, empty int
	}{
		{FCFSPolicy{}, 5000, 9969, 8283},
		{EASYPolicy{}, 5000, 9996, 6498},
		{GreedyFitPolicy{}, 5000, 9998, 5044},
		{ConservativePolicy{}, 700, 1382, 1013},
	} {
		t.Run(tc.policy.Name(), func(t *testing.T) {
			src := workload.MixedSource(workload.GenConfig{N: tc.n, M: 64, Seed: 7, ArrivalRate: 2, RigidFraction: 0.5})
			p := countDecisions(t, 64, tc.policy, func(s *Sim) error { return s.Stream(src) })
			if p.calls != tc.calls || p.empty != tc.empty {
				t.Fatalf("%d jobs: %d calls, %d empty (%.0f %%); want %d calls, %d empty",
					tc.n, p.calls, p.empty, 100*float64(p.empty)/float64(p.calls), tc.calls, tc.empty)
			}
		})
	}
}

// TestDecideCountsReplay pins the decisions of TestReplayAllocBudget's
// replay: EASY on the 20 000-job archive at about half load. Every job
// arrives at an instant of its own and finds the machine with room, so
// the Sim decides once per arrival and starts the job; a finish leaves
// the queue empty and asks the policy nothing. 20 000 calls, none empty.
func TestDecideCountsReplay(t *testing.T) {
	const n = 20_000
	var archive bytes.Buffer
	WriteReplayRecords(t, &archive, n)
	p := countDecisions(t, ReplayM, EASYPolicy{}, func(s *Sim) error {
		return s.Stream(trace.NewSWFJobSource(bytes.NewReader(archive.Bytes())))
	})
	if p.calls != n || p.empty != 0 {
		t.Fatalf("%d jobs: %d calls, %d empty; want %d calls, 0 empty", n, p.calls, p.empty, n)
	}
}
