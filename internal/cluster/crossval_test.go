package cluster

// Cross-validation tests: the event-driven simulator and the offline
// profile-based builders implement the same policies through entirely
// different code paths; on identical inputs they must agree. This is the
// strongest correctness oracle in the repository — a bug in either the
// DES, the profile, or a policy shows up as a divergence here.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/rigid"
	"repro/internal/stats"
	"repro/internal/workload"
)

func randomRigidWorkload(seed uint64, n, m int, rate float64) []*workload.Job {
	rng := stats.NewRNG(seed)
	jobs := make([]*workload.Job, n)
	clock := 0.0
	for i := range jobs {
		clock += rng.Exp(rate)
		p := rng.IntRange(1, m)
		jobs[i] = &workload.Job{
			ID: i, Kind: workload.Rigid, Weight: 1, DueDate: -1, Release: clock,
			SeqTime: rng.Range(0.5, 25) * float64(p), MinProcs: p, MaxProcs: p,
			Model: workload.Linear{},
		}
	}
	return jobs
}

func desStarts(t *testing.T, jobs []*workload.Job, m int, pol Policy) map[int]float64 {
	t.Helper()
	s, err := New(des.New(), m, 1, pol, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	starts := map[int]float64{}
	for _, c := range s.Completions() {
		starts[c.Job.ID] = c.Start
	}
	return starts
}

func TestDESFCFSMatchesOffline(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		jobs := randomRigidWorkload(seed, 25, 8, 0.4)
		online := desStarts(t, jobs, 8, FCFSPolicy{})
		offline, err := rigid.FCFSWithCalendar(jobs, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range offline.Allocs {
			if got := online[a.Job.ID]; math.Abs(got-a.Start) > 1e-9 {
				t.Fatalf("seed %d job %d: DES start %v, offline start %v",
					seed, a.Job.ID, got, a.Start)
			}
		}
	}
}

func TestDESConservativeMatchesOfflineWhenAllAtZero(t *testing.T) {
	// With every job released at 0, the online plan never changes as
	// time passes, so the two implementations must agree exactly.
	for seed := uint64(0); seed < 20; seed++ {
		jobs := randomRigidWorkload(seed, 25, 8, 0.4)
		for _, j := range jobs {
			j.Release = 0
		}
		online := desStarts(t, jobs, 8, ConservativePolicy{})
		offline, err := rigid.Conservative(jobs, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range offline.Allocs {
			if got := online[a.Job.ID]; math.Abs(got-a.Start) > 1e-9 {
				t.Fatalf("seed %d job %d: DES start %v, offline start %v",
					seed, a.Job.ID, got, a.Start)
			}
		}
	}
}

func TestConservativePolicyNeverDelaysEarlierJob(t *testing.T) {
	// The defining property of conservative backfilling: removing any
	// suffix of the queue never changes earlier jobs' start times. We
	// test the observable consequence online: starts with the full
	// workload equal starts with the last job dropped, for the prefix.
	for seed := uint64(30); seed < 40; seed++ {
		jobs := randomRigidWorkload(seed, 15, 8, 0.5)
		full := desStarts(t, jobs, 8, ConservativePolicy{})
		prefix := jobs[:len(jobs)-1]
		part := desStarts(t, prefix, 8, ConservativePolicy{})
		for _, j := range prefix {
			if math.Abs(full[j.ID]-part[j.ID]) > 1e-9 {
				t.Fatalf("seed %d: job %d moved from %v to %v when a later job was added",
					seed, j.ID, part[j.ID], full[j.ID])
			}
		}
	}
}

func TestConservativeBackfillsLikeOffline(t *testing.T) {
	// The canonical scenario: wide head blocked, small job backfills.
	jobs := []*workload.Job{
		{ID: 1, Kind: workload.Rigid, Weight: 1, DueDate: -1, SeqTime: 30, MinProcs: 3, MaxProcs: 3, Model: workload.Linear{}},
		{ID: 2, Kind: workload.Rigid, Weight: 1, DueDate: -1, SeqTime: 10, MinProcs: 2, MaxProcs: 2, Model: workload.Linear{}},
		{ID: 3, Kind: workload.Rigid, Weight: 1, DueDate: -1, SeqTime: 2, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{}},
	}
	starts := desStarts(t, jobs, 4, ConservativePolicy{})
	if starts[3] != 0 {
		t.Fatalf("small job did not backfill: start %v", starts[3])
	}
	if starts[2] != 10 {
		t.Fatalf("blocked job start %v, want 10", starts[2])
	}
}

// Property: across random online workloads, conservative's per-job start
// times are never later than FCFS's (conservative dominates FCFS).
func TestConservativeDominatesFCFSProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 12)
		jobs := randomRigidWorkload(seed, rng.IntRange(2, 20), m, 0.4)
		var consStarts, fcfsStarts map[int]float64
		{
			s, err := New(des.New(), m, 1, ConservativePolicy{}, KillNewest)
			if err != nil {
				return false
			}
			for _, j := range jobs {
				if err := s.Submit(j); err != nil {
					return false
				}
			}
			if err := s.Run(); err != nil {
				return false
			}
			consStarts = map[int]float64{}
			for _, c := range s.Completions() {
				consStarts[c.Job.ID] = c.Start
			}
		}
		{
			s, err := New(des.New(), m, 1, FCFSPolicy{}, KillNewest)
			if err != nil {
				return false
			}
			for _, j := range jobs {
				if err := s.Submit(j); err != nil {
					return false
				}
			}
			if err := s.Run(); err != nil {
				return false
			}
			fcfsStarts = map[int]float64{}
			for _, c := range s.Completions() {
				fcfsStarts[c.Job.ID] = c.Start
			}
		}
		for id, cs := range consStarts {
			if cs > fcfsStarts[id]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
