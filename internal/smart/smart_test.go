package smart

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func rjob(id int, dur float64, procs int, weight float64) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Weight: weight, DueDate: -1,
		SeqTime: dur * float64(procs), MinProcs: procs, MaxProcs: procs,
		Model: workload.Linear{},
	}
}

func rigidInstance(seed uint64, n, m int, weighted bool) []*workload.Job {
	rng := stats.NewRNG(seed)
	jobs := make([]*workload.Job, n)
	for i := range jobs {
		w := 1.0
		if weighted {
			w = float64(rng.Zipf(1.1, 10))
		}
		jobs[i] = rjob(i, rng.LogNormal(1.5, 1.0), rng.IntRange(1, m), w)
	}
	return jobs
}

func TestScheduleValidComplete(t *testing.T) {
	jobs := rigidInstance(1, 60, 16, true)
	s, shelves, err := Schedule(jobs, 16, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if shelves <= 0 {
		t.Fatal("no shelves built")
	}
	if err := s.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Covers(jobs); err != nil {
		t.Fatal(err)
	}
}

func TestShelfHeightsArePowersOfTwo(t *testing.T) {
	jobs := rigidInstance(2, 40, 8, false)
	s, _, err := Schedule(jobs, 8, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	// Every start time must be a sum of powers of two (weak check: every
	// job fits within the power-of-two shelf above its own time).
	for _, a := range s.Allocs {
		tt := a.Job.TimeOn(a.Procs)
		class := math.Ceil(math.Log2(tt) - 1e-12)
		shelfHeight := math.Pow(2, class)
		if tt > shelfHeight*(1+1e-9) {
			t.Fatalf("job %d time %v exceeds its shelf height %v", a.Job.ID, tt, shelfHeight)
		}
	}
}

func TestSmithRuleOrder(t *testing.T) {
	// Heavy short jobs must be scheduled before light long jobs.
	heavy := rjob(1, 1, 1, 100)
	light := rjob(2, 64, 1, 1)
	s, _, err := Schedule([]*workload.Job{light, heavy}, 4, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	starts := map[int]float64{}
	for _, a := range s.Allocs {
		starts[a.Job.ID] = a.Start
	}
	if starts[1] >= starts[2] {
		t.Fatalf("heavy short job starts at %v, after light long at %v", starts[1], starts[2])
	}
}

func TestUnweightedRatioBound(t *testing.T) {
	// §4.3: ratio 8 for ΣCi. Measured against the lower bound it must
	// stay within 8 on random instances (usually far below).
	worst := 0.0
	for seed := uint64(0); seed < 10; seed++ {
		jobs := rigidInstance(seed, 80, 16, false)
		s, _, err := Schedule(jobs, 16, FirstFit)
		if err != nil {
			t.Fatal(err)
		}
		lb := lowerbound.SumWeightedCompletion(jobs, 16) // unit weights: the ΣCi bound
		ratio := s.Report().SumCompletion / lb
		if ratio > worst {
			worst = ratio
		}
	}
	if worst > RatioUnweighted {
		t.Fatalf("measured ΣC ratio %v exceeds the proven bound 8", worst)
	}
	if worst < 1 {
		t.Fatalf("ratio %v below 1 — lower bound broken", worst)
	}
}

func TestWeightedRatioBound(t *testing.T) {
	worst := 0.0
	for seed := uint64(20); seed < 30; seed++ {
		jobs := rigidInstance(seed, 80, 16, true)
		s, _, err := Schedule(jobs, 16, FirstFit)
		if err != nil {
			t.Fatal(err)
		}
		lb := lowerbound.SumWeightedCompletion(jobs, 16)
		ratio := s.Report().SumWeightedCompletion / lb
		if ratio > worst {
			worst = ratio
		}
	}
	if worst > RatioWeighted {
		t.Fatalf("measured ΣwC ratio %v exceeds the proven bound 8.53", worst)
	}
}

func TestBestFitAblation(t *testing.T) {
	jobs := rigidInstance(3, 100, 16, true)
	ff, nFF, err := Schedule(jobs, 16, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	bf, nBF, err := Schedule(jobs, 16, BestFit)
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
		t.Fatal(err)
	}
	// Both must pack all jobs; shelf counts may differ but not wildly.
	if nBF > 2*nFF+2 || nFF > 2*nBF+2 {
		t.Fatalf("shelf counts diverge: FF=%d BF=%d", nFF, nBF)
	}
	_ = ff
}

func TestOversizedJobRejected(t *testing.T) {
	if _, _, err := Schedule([]*workload.Job{rjob(1, 5, 32, 1)}, 8, FirstFit); err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestSubSecondJobs(t *testing.T) {
	// Times < 1 produce negative shelf classes; heights 2^-k must still
	// bound the job times.
	jobs := []*workload.Job{
		rjob(1, 0.3, 1, 1), rjob(2, 0.6, 2, 1), rjob(3, 0.1, 1, 1),
	}
	s, _, err := Schedule(jobs, 4, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
		t.Fatal(err)
	}
}

func TestMoldableFrozenAtMinProcs(t *testing.T) {
	j := &workload.Job{
		ID: 1, Kind: workload.Moldable, Weight: 1, DueDate: -1,
		SeqTime: 10, MinProcs: 2, MaxProcs: 8, Model: workload.Linear{},
	}
	s, _, err := Schedule([]*workload.Job{j}, 8, FirstFit)
	if err != nil {
		t.Fatal(err)
	}
	if s.Allocs[0].Procs != 2 {
		t.Fatalf("moldable job frozen at %d procs, want MinProcs=2", s.Allocs[0].Procs)
	}
}

// Property: SMART schedules are always valid, complete, and within the
// proven constant of the ΣwC lower bound.
func TestSMARTProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8, weighted bool) bool {
		n := int(nRaw%60) + 1
		m := int(mRaw%14) + 2
		jobs := rigidInstance(seed, n, m, weighted)
		for _, fill := range []Fill{FirstFit, BestFit} {
			s, _, err := Schedule(jobs, m, fill)
			if err != nil {
				return false
			}
			if s.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}) != nil {
				return false
			}
			if s.Covers(jobs) != nil {
				return false
			}
			lb := lowerbound.SumWeightedCompletion(jobs, m)
			if lb > 0 && s.Report().SumWeightedCompletion > RatioWeighted*lb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
