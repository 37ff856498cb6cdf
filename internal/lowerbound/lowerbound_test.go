package lowerbound

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func mold(id int, seq float64, maxP int) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Moldable, Weight: 1, DueDate: -1,
		SeqTime: seq, MinProcs: 1, MaxProcs: maxP, Model: workload.Linear{},
	}
}

// cmaxMinTime is the critical-job bound: the largest minimal execution
// time over all jobs (every job must run somewhere, entirely).
func cmaxMinTime(jobs []*workload.Job, m int) float64 {
	var lb float64
	for _, j := range jobs {
		t, _ := j.MinTime(m)
		if !math.IsInf(t, 0) && t > lb {
			lb = t
		}
	}
	return lb
}

// sumCompletion is the unweighted ΣCi bound: SumWeightedCompletion with
// every weight 1, whatever the stored weights.
func sumCompletion(jobs []*workload.Job, m int) float64 {
	unit := make([]*workload.Job, len(jobs))
	for i, j := range jobs {
		c := *j
		c.Weight = 1
		unit[i] = &c
	}
	return SumWeightedCompletion(unit, m)
}

func TestCmaxArea(t *testing.T) {
	jobs := []*workload.Job{mold(1, 10, 4), mold(2, 30, 4)}
	if got := CmaxArea(jobs, 4); math.Abs(got-10) > 1e-12 {
		t.Fatalf("CmaxArea = %v, want 10", got)
	}
}

func TestCmaxMinTime(t *testing.T) {
	jobs := []*workload.Job{mold(1, 10, 1), mold(2, 30, 4)}
	// job1 can only run sequentially: min time 10; job2: 30/4 = 7.5.
	if got := cmaxMinTime(jobs, 4); got != 10 {
		t.Fatalf("CmaxMinTime = %v, want 10", got)
	}
}

func TestCmaxDualDominates(t *testing.T) {
	rng := stats.NewRNG(1)
	var jobs []*workload.Job
	for i := 0; i < 30; i++ {
		j := mold(i, rng.Range(1, 100), rng.IntRange(1, 8))
		j.Model = workload.Amdahl{Alpha: 0.1}
		jobs = append(jobs, j)
	}
	m := 8
	dual := CmaxDualOf(workload.Costs(jobs, m), m)
	if dual < CmaxArea(jobs, m)-1e-9 {
		t.Fatal("dual bound below area bound")
	}
	if dual < cmaxMinTime(jobs, m)-1e-9 {
		t.Fatal("dual bound below min-time bound")
	}
}

func TestCmaxDualSingleJob(t *testing.T) {
	// One sequential-only job: the dual bound must equal its time.
	jobs := []*workload.Job{mold(1, 42, 1)}
	if got := CmaxDualOf(workload.Costs(jobs, 16), 16); math.Abs(got-42) > 1e-6 {
		t.Fatalf("CmaxDual = %v, want 42", got)
	}
}

func TestCmaxDualTightOnPerfectPacking(t *testing.T) {
	// m identical sequential jobs on m processors: optimum = seq time.
	var jobs []*workload.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, mold(i, 10, 1))
	}
	if got := CmaxDualOf(workload.Costs(jobs, 8), 8); math.Abs(got-10) > 1e-6 {
		t.Fatalf("CmaxDual = %v, want 10", got)
	}
}

func TestCmaxWithReleases(t *testing.T) {
	j := mold(1, 10, 1)
	j.Release = 100
	if got := Cmax([]*workload.Job{j}, 4); math.Abs(got-110) > 1e-6 {
		t.Fatalf("Cmax = %v, want 110", got)
	}
}

func TestCmaxEmpty(t *testing.T) {
	if CmaxDualOf(workload.Costs(nil, 4), 4) != 0 || Cmax(nil, 4) != 0 {
		t.Fatal("empty instance bound != 0")
	}
	// Zero processors used to leave a NaN area term and a doubling that
	// never ended.
	jobs := workload.Parallel(workload.GenConfig{N: 3, M: 4, Seed: 1})
	if got := CmaxDualOf(workload.Costs(jobs, 0), 0); got != 0 {
		t.Fatalf("bound on zero processors = %v, want 0", got)
	}
}

func TestSumWeightedCompletionSingleMachine(t *testing.T) {
	// Two sequential jobs on one processor, weights 1: optimal ΣC by SPT
	// = 2 + (2+5) = 9. The bound must not exceed it and should be
	// reasonably tight here (it equals it: squashed machine = machine).
	jobs := []*workload.Job{mold(1, 5, 1), mold(2, 2, 1)}
	got := SumWeightedCompletion(jobs, 1)
	if got > 9+1e-9 {
		t.Fatalf("bound %v exceeds optimal 9", got)
	}
	if math.Abs(got-9) > 1e-9 {
		t.Fatalf("bound %v not tight on single machine, want 9", got)
	}
}

func TestSumWeightedCompletionUsesWeights(t *testing.T) {
	a := mold(1, 10, 1)
	a.Weight = 10
	b := mold(2, 10, 1)
	b.Weight = 1
	withW := SumWeightedCompletion([]*workload.Job{a, b}, 1)
	unw := sumCompletion([]*workload.Job{a, b}, 1)
	if withW <= unw {
		t.Fatalf("weighted bound %v not above unweighted %v", withW, unw)
	}
}

func TestSumCompletionIgnoresStoredWeights(t *testing.T) {
	a := mold(1, 5, 1)
	a.Weight = 100
	b := mold(2, 2, 1)
	got := sumCompletion([]*workload.Job{a, b}, 1)
	if math.Abs(got-9) > 1e-9 {
		t.Fatalf("SumCompletion = %v, want 9", got)
	}
}

func TestSumWeightedReleaseTerm(t *testing.T) {
	j := mold(1, 1, 1)
	j.Release = 1000
	got := SumWeightedCompletion([]*workload.Job{j}, 4)
	if got < 1001-1e-9 {
		t.Fatalf("bound %v misses release term 1001", got)
	}
}

// buildGreedySchedule packs jobs sequentially with a simple list rule so
// property tests can compare a real schedule against the bounds.
func buildGreedySchedule(jobs []*workload.Job, m int) *sched.Schedule {
	s := sched.New(m)
	// Free time per processor (list scheduling on 1 proc each).
	free := make([]float64, m)
	for _, j := range jobs {
		// Earliest processor.
		best := 0
		for p := 1; p < m; p++ {
			if free[p] < free[best] {
				best = p
			}
		}
		start := math.Max(free[best], j.Release)
		s.Add(sched.Alloc{Job: j, Start: start, Procs: 1})
		free[best] = start + j.TimeOn(1)
	}
	return s
}

// Property: bounds never exceed the value of an actual feasible schedule.
func TestBoundsBelowFeasibleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(1, 8)
		n := rng.IntRange(1, 20)
		var jobs []*workload.Job
		for i := 0; i < n; i++ {
			j := mold(i, rng.Range(1, 50), rng.IntRange(1, m))
			j.Model = workload.Amdahl{Alpha: rng.Range(0, 0.5)}
			j.Weight = rng.Range(0.1, 5)
			jobs = append(jobs, j)
		}
		s := buildGreedySchedule(jobs, m)
		if s.Validate() != nil {
			return false
		}
		rep := s.Report()
		if Cmax(jobs, m) > rep.Makespan+1e-6 {
			return false
		}
		if SumWeightedCompletion(jobs, m) > rep.SumWeightedCompletion+1e-6 {
			return false
		}
		return sumCompletion(jobs, m) <= rep.SumCompletion+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: dual feasibility is monotone — the returned λ is feasible and
// 0.99λ is not (unless λ hit the trivial lower bound).
func TestDualMinimalityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 12)
		n := rng.IntRange(2, 15)
		var jobs []*workload.Job
		for i := 0; i < n; i++ {
			j := mold(i, rng.Range(1, 80), rng.IntRange(1, m))
			j.Model = workload.PowerLaw{Sigma: rng.Range(0.5, 1.0)}
			jobs = append(jobs, j)
		}
		lam := CmaxDualOf(workload.Costs(jobs, m), m)
		if !dualFeasible(workload.Costs(jobs, m), m, lam*(1+1e-6)) {
			return false
		}
		trivial := math.Max(CmaxArea(jobs, m), cmaxMinTime(jobs, m))
		if lam > trivial*(1+1e-9) {
			// Strictly above the trivial bound: must be minimal.
			return !dualFeasible(workload.Costs(jobs, m), m, lam*0.99)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
