package malleable

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/lowerbound"
	"repro/internal/moldable"
	"repro/internal/platform"
	"repro/internal/stats"
	"repro/internal/workload"
)

func mjob(id int, seq float64, minP, maxP int) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Malleable, Weight: 1, DueDate: -1,
		SeqTime: seq, MinProcs: minP, MaxProcs: maxP, Model: workload.Linear{},
	}
}

func TestSingleJobUsesMaxProcs(t *testing.T) {
	j := mjob(1, 16, 1, 4)
	res, err := Schedule([]*workload.Job{j}, 8, Equi)
	if err != nil {
		t.Fatal(err)
	}
	// Alone on the machine: runs at MaxProcs=4 → 16/4 = 4 s.
	if math.Abs(res.Makespan-4) > 1e-9 {
		t.Fatalf("makespan %v, want 4", res.Makespan)
	}
	if res.Reallocations != 0 {
		t.Fatalf("%d reallocations for a lone job", res.Reallocations)
	}
}

func TestEquipartitionIdenticalLinearJobsIsOptimal(t *testing.T) {
	// k identical fully-parallel jobs on m procs: EQUI keeps the machine
	// saturated, so makespan = total work / m (the area bound).
	var jobs []*workload.Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, mjob(i, 32, 1, 8))
	}
	res, err := Schedule(jobs, 8, Equi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-16) > 1e-6 {
		t.Fatalf("makespan %v, want 4*32/8 = 16", res.Makespan)
	}
}

func TestMalleableAdaptsToCompletions(t *testing.T) {
	// A short and a long job: when the short one finishes, the long one
	// must absorb its processors and finish earlier than with a static
	// split.
	short := mjob(1, 8, 1, 8)
	long := mjob(2, 40, 1, 8)
	res, err := Schedule([]*workload.Job{short, long}, 8, Equi)
	if err != nil {
		t.Fatal(err)
	}
	// Static halves: long takes 40/4 = 10. Malleable: both at 4 until
	// short ends at 2 (8/4), then long at 8 procs: remaining 40-2*4=32
	// work → 4 more seconds → 6 total.
	if math.Abs(res.Makespan-6) > 1e-6 {
		t.Fatalf("makespan %v, want 6", res.Makespan)
	}
	if res.Reallocations == 0 {
		t.Fatal("no reallocation recorded")
	}
}

func TestReleaseDatesRespected(t *testing.T) {
	a := mjob(1, 10, 1, 2)
	b := mjob(2, 10, 1, 2)
	b.Release = 100
	res, err := Schedule([]*workload.Job{a, b}, 4, Equi)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Completions {
		if c.Start < c.Job.Release-1e-9 {
			t.Fatalf("job %d started at %v before release %v", c.Job.ID, c.Start, c.Job.Release)
		}
	}
}

func TestMinProcsAdmissionFCFS(t *testing.T) {
	// Two jobs each requiring the whole machine: strictly sequential.
	a := mjob(1, 8, 4, 4)
	b := mjob(2, 8, 4, 4)
	res, err := Schedule([]*workload.Job{a, b}, 4, Equi)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-4) > 1e-9 {
		t.Fatalf("makespan %v, want 2+2", res.Makespan)
	}
	var first, second float64
	for _, c := range res.Completions {
		if c.Job.ID == 1 {
			first = c.End
		} else {
			second = c.End
		}
	}
	if !(first < second) {
		t.Fatal("FCFS admission violated")
	}
}

func TestWeightProportionalFavorsHeavy(t *testing.T) {
	heavy := mjob(1, 32, 1, 16)
	heavy.Weight = 9
	light := mjob(2, 32, 1, 16)
	light.Weight = 1
	res, err := Schedule([]*workload.Job{heavy, light}, 10, WeightProportional)
	if err != nil {
		t.Fatal(err)
	}
	var endH, endL float64
	for _, c := range res.Completions {
		if c.Job.ID == 1 {
			endH = c.End
		} else {
			endL = c.End
		}
	}
	if endH >= endL {
		t.Fatalf("heavy job finished at %v, after light at %v", endH, endL)
	}
}

func TestOversizedJobRejected(t *testing.T) {
	if _, err := Schedule([]*workload.Job{mjob(1, 4, 8, 8)}, 4, Equi); err == nil {
		t.Fatal("oversized job accepted")
	}
	if _, err := Schedule(nil, 0, Equi); err == nil {
		t.Fatal("m=0 accepted")
	}
}

func TestMalleableAtLeastLowerBound(t *testing.T) {
	jobs := workload.Parallel(workload.GenConfig{N: 40, M: 16, Seed: 3})
	for _, j := range jobs {
		j.Kind = workload.Malleable
	}
	res, err := Schedule(jobs, 16, Equi)
	if err != nil {
		t.Fatal(err)
	}
	lb := lowerbound.CmaxDualOf(workload.Costs(jobs, 16), 16)
	if res.Makespan < lb*(1-1e-9) {
		t.Fatalf("makespan %v below lower bound %v", res.Makespan, lb)
	}
}

func TestMalleableVsMoldableOnLinearJobs(t *testing.T) {
	// With linear speedups and no allocation caps, malleability can only
	// help versus the moldable one-shot choice: EQUI keeps the machine
	// saturated whenever work remains.
	rng := stats.NewRNG(11)
	var jobs []*workload.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, mjob(i, rng.Range(5, 50), 1, 16))
	}
	mal, err := Schedule(jobs, 16, Equi)
	if err != nil {
		t.Fatal(err)
	}
	mol, err := moldable.MRT(jobs, 16, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if mal.Makespan > mol.Schedule.Makespan()*(1+1e-6) {
		t.Fatalf("malleable EQUI (%v) worse than moldable MRT (%v) on linear jobs",
			mal.Makespan, mol.Schedule.Makespan())
	}
}

// Property: the simulation never overcommits the machine (sampled at
// completion records via a capacity sweep of piecewise allocations is
// not directly possible — allocations change over time — so we check
// the conservation invariants instead: every job completes exactly once,
// never before release + its fastest possible time, and makespan is at
// least the area bound).
func TestMalleableProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8, weighted bool) bool {
		rng := stats.NewRNG(seed)
		n := int(nRaw%30) + 1
		m := int(mRaw%14) + 2
		var jobs []*workload.Job
		clock := 0.0
		for i := 0; i < n; i++ {
			clock += rng.Exp(0.5)
			minP := rng.IntRange(1, m)
			j := mjob(i, rng.Range(1, 40), minP, rng.IntRange(minP, m))
			j.Release = clock
			if weighted {
				j.Weight = rng.Range(0.1, 10)
			}
			jobs = append(jobs, j)
		}
		share := Equi
		if weighted {
			share = WeightProportional
		}
		res, err := Schedule(jobs, m, share)
		if err != nil {
			return false
		}
		if len(res.Completions) != n {
			return false
		}
		seen := map[int]bool{}
		for _, c := range res.Completions {
			if seen[c.Job.ID] {
				return false
			}
			seen[c.Job.ID] = true
			minT, _ := c.Job.MinTime(m)
			if c.End < c.Job.Release+minT*(1-1e-6) {
				return false // finished impossibly fast
			}
			if c.Start < c.Job.Release-1e-9 {
				return false
			}
		}
		lb := lowerbound.CmaxArea(jobs, m)
		return res.Makespan >= lb*(1-1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Cross-check: total processor-seconds consumed (integrated from the
// per-interval allocations) can never exceed m × makespan. We verify via
// platform.PeakDemand over reconstructed constant-allocation segments of
// a two-job scenario.
func TestNoOvercommitTwoJobs(t *testing.T) {
	a := mjob(1, 12, 1, 3)
	b := mjob(2, 12, 1, 3)
	res, err := Schedule([]*workload.Job{a, b}, 4, Equi)
	if err != nil {
		t.Fatal(err)
	}
	// 4 procs split 2+2 until the first completion; both jobs run 12/2=6s
	// → both end at 6, no reallocation beyond the initial deal.
	if math.Abs(res.Makespan-6) > 1e-9 {
		t.Fatalf("makespan %v, want 6", res.Makespan)
	}
	intervals := []platform.Interval{}
	for _, c := range res.Completions {
		intervals = append(intervals, platform.Interval{Start: c.Start, End: c.End, Count: 2})
	}
	if platform.PeakDemand(intervals) > 4 {
		t.Fatal("overcommitted")
	}
}
