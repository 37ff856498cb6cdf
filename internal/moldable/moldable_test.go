package moldable

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// totalWork sums the work of an allotment set.
func totalWork(allot []Allotment) float64 {
	var w float64
	for _, a := range allot {
		w += a.Work()
	}
	return w
}

// shelf1Width sums the widths of shelf-1 allotments.
func shelf1Width(allot []Allotment) int {
	var w int
	for _, a := range allot {
		if a.Shelf == 1 {
			w += a.Procs
		}
	}
	return w
}

// checkAllotment validates the invariants of a two-shelf allotment.
func checkAllotment(allot []Allotment, m int, lambda float64) error {
	for _, a := range allot {
		if a.Time > lambda*(1+1e-9) {
			return fmt.Errorf("moldable: job %d time %v exceeds λ=%v", a.Job.ID, a.Time, lambda)
		}
		if a.Shelf == 2 && a.Time > lambda/2*(1+1e-9) {
			return fmt.Errorf("moldable: shelf-2 job %d time %v exceeds λ/2", a.Job.ID, a.Time)
		}
		if a.Shelf != 1 && a.Shelf != 2 {
			return fmt.Errorf("moldable: job %d on shelf %d", a.Job.ID, a.Shelf)
		}
	}
	if w := shelf1Width(allot); w > m {
		return fmt.Errorf("moldable: shelf-1 width %d exceeds %d", w, m)
	}
	if tw := totalWork(allot); tw > lambda*float64(m)*(1+1e-9) {
		return fmt.Errorf("moldable: total work %v exceeds area %v", tw, lambda*float64(m))
	}
	if math.IsNaN(totalWork(allot)) {
		return fmt.Errorf("moldable: NaN work")
	}
	return nil
}

func mold(id int, seq float64, maxP int, model workload.SpeedupModel) *workload.Job {
	j := &workload.Job{
		ID: id, Kind: workload.Moldable, Weight: 1, DueDate: -1,
		SeqTime: seq, MinProcs: 1, MaxProcs: maxP, Model: model,
	}
	j.Times = workload.MakeTable(model, seq, maxP)
	return j
}

func randomInstance(seed uint64, n, m int) []*workload.Job {
	rng := stats.NewRNG(seed)
	jobs := make([]*workload.Job, n)
	for i := range jobs {
		var model workload.SpeedupModel
		if rng.Bool(0.5) {
			model = workload.Amdahl{Alpha: rng.Range(0.02, 0.3)}
		} else {
			model = workload.PowerLaw{Sigma: rng.Range(0.5, 1.0)}
		}
		jobs[i] = mold(i, rng.Range(1, 100), rng.IntRange(1, m), model)
	}
	return jobs
}

func TestSelectAllotmentsInvariants(t *testing.T) {
	jobs := randomInstance(1, 50, 16)
	lb := lowerbound.CmaxDualOf(workload.Costs(jobs, 16), 16)
	for _, mult := range []float64{1.0, 1.2, 2.0} {
		lambda := lb * mult
		allot, ok := SelectAllotments(workload.Costs(jobs, 16), 16, lambda)
		if !ok {
			if mult >= 1.0 {
				// λ ≥ LB must pass the feasibility test: the dual bound is
				// precisely the smallest feasible λ.
				t.Fatalf("λ=%v (mult %v) declared infeasible", lambda, mult)
			}
			continue
		}
		if err := checkAllotment(allot, 16, lambda); err != nil {
			t.Fatalf("mult %v: %v", mult, err)
		}
		if len(allot) != len(jobs) {
			t.Fatalf("allotment dropped jobs: %d of %d", len(allot), len(jobs))
		}
	}
}

func TestSelectAllotmentsInfeasibleLambda(t *testing.T) {
	jobs := []*workload.Job{mold(1, 100, 1, workload.Linear{})}
	// Sequential-only job of length 100 cannot meet λ=50.
	if _, ok := SelectAllotments(workload.Costs(jobs, 8), 8, 50); ok {
		t.Fatal("infeasible λ accepted")
	}
	if _, ok := SelectAllotments(workload.Costs(jobs, 8), 8, 0); ok {
		t.Fatal("λ=0 accepted")
	}
}

func TestSelectAllotmentsKnapsackPrefersShelf1Savings(t *testing.T) {
	// Two jobs with strong speedup: on a tight λ both want small procs on
	// shelf 1; verify the knapsack respects the width budget m.
	jobs := []*workload.Job{
		mold(1, 40, 8, workload.Linear{}),
		mold(2, 40, 8, workload.Linear{}),
	}
	m := 8
	lb := lowerbound.CmaxDualOf(workload.Costs(jobs, m), m) // = 10 (80 work / 8)
	allot, ok := SelectAllotments(workload.Costs(jobs, m), m, lb)
	if !ok {
		t.Fatalf("λ=LB=%v infeasible", lb)
	}
	if w := shelf1Width(allot); w > m {
		t.Fatalf("shelf-1 width %d exceeds %d", w, m)
	}
}

func TestMRTEmptyAndSingle(t *testing.T) {
	res, err := MRT(nil, 4, 0.01)
	if err != nil || len(res.Schedule.Allocs) != 0 {
		t.Fatalf("empty MRT: %v, %v", res, err)
	}
	j := mold(1, 10, 4, workload.Linear{})
	res, err = MRT([]*workload.Job{j}, 4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// One perfectly parallel job: optimum is 10/4 = 2.5.
	if res.Schedule.Makespan() > 2.5*1.05 {
		t.Fatalf("single-job makespan %v, optimum 2.5", res.Schedule.Makespan())
	}
}

func TestMRTRejectsImpossibleJob(t *testing.T) {
	j := &workload.Job{
		ID: 1, Kind: workload.Rigid, SeqTime: 10, MinProcs: 8, MaxProcs: 8,
		Model: workload.Linear{}, Weight: 1, DueDate: -1,
	}
	if _, err := MRT([]*workload.Job{j}, 4, 0.01); err == nil {
		t.Fatal("job wider than platform accepted")
	}
}

func TestMRTShelfBoundInvariant(t *testing.T) {
	// The accepted guess must satisfy makespan ≤ 3λ/2 (the construction
	// invariant of the dual approximation).
	for seed := uint64(0); seed < 10; seed++ {
		jobs := randomInstance(seed, 60, 20)
		res, err := MRT(jobs, 20, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if mk := res.Schedule.Makespan(); mk > 1.5*res.Lambda*(1+1e-6) {
			t.Fatalf("seed %d: makespan %v exceeds 3λ/2 = %v", seed, mk, 1.5*res.Lambda)
		}
		if err := res.Schedule.Covers(jobs); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMRTRatioOnMonotoneInstances(t *testing.T) {
	// §4.1 guarantee: ratio 3/2 + ε against the optimum. We measure
	// against the (weaker) lower bound; the measured ratio must stay
	// within 3/2 + ε against it on these instances, since the accepted
	// guess λ* ≤ (1+ε)·λmin and makespan ≤ 3λ*/2 with λmin ≤ ~LB here.
	worst := 0.0
	for seed := uint64(10); seed < 25; seed++ {
		jobs := randomInstance(seed, 80, 32)
		res, err := MRT(jobs, 32, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if r := res.Schedule.Makespan() / lowerbound.CmaxDualOf(workload.Costs(jobs, 32), 32); r > worst {
			worst = r
		}
	}
	if worst > 1.55 {
		t.Fatalf("worst measured ratio %v exceeds 3/2 + ε envelope", worst)
	}
	if worst < 1.0-1e-9 {
		t.Fatalf("ratio %v below 1 — lower bound broken", worst)
	}
}

func TestMRTIdenticalSequentialJobs(t *testing.T) {
	// m identical sequential jobs: optimum = their time; MRT must be
	// exactly optimal here (they all fit side by side).
	var jobs []*workload.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, mold(i, 10, 1, workload.Linear{}))
	}
	res, err := MRT(jobs, 8, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Makespan() > 10*1.01 {
		t.Fatalf("makespan %v, want ~10", res.Schedule.Makespan())
	}
}

func TestMRTGreedyAblationStillValid(t *testing.T) {
	jobs := randomInstance(30, 40, 16)
	costs := workload.Costs(jobs, 16)
	res, err := MRTWithAllotOf(costs, 16, lowerbound.CmaxDualOf(costs, 16), 0.01, GreedyAllotments)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
		t.Fatal(err)
	}
	knap, err := MRT(jobs, 16, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// The knapsack should never be meaningfully worse than greedy.
	if knap.Schedule.Makespan() > res.Schedule.Makespan()*1.1 {
		t.Fatalf("knapsack %v much worse than greedy %v",
			knap.Schedule.Makespan(), res.Schedule.Makespan())
	}
}

func TestLargestPrefixForDeadline(t *testing.T) {
	jobs := randomInstance(40, 30, 16)
	costs := workload.Costs(jobs, 16)
	lb := lowerbound.CmaxDualOf(workload.Costs(jobs, 16), 16)
	var b Builder
	// A generous deadline must take the whole list and fit in 3d/2.
	s, n := b.LargestPrefixForDeadline(costs, 16, 2*lb)
	if n != len(jobs) {
		t.Fatalf("generous deadline kept %d of %d jobs", n, len(jobs))
	}
	if s.Makespan() > 3*lb*(1+1e-9) {
		t.Fatalf("makespan %v exceeds 3d/2", s.Makespan())
	}
	// A tight one must evict from the tail and schedule exactly the rest.
	s, n = b.LargestPrefixForDeadline(costs, 16, lb/2)
	if n == 0 || n >= len(jobs) {
		t.Fatalf("deadline LB/2 kept %d of %d jobs, want a proper prefix", n, len(jobs))
	}
	if err := s.Covers(jobs[:n]); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() > 0.75*lb*(1+1e-9) {
		t.Fatalf("makespan %v exceeds 3d/2", s.Makespan())
	}
	// A deadline no job can meet even alone must fail outright.
	if s, n := b.LargestPrefixForDeadline(costs, 16, 1e-3); s != nil || n != 0 {
		t.Fatalf("absurd deadline kept %d jobs", n)
	}
}

func TestBaselines(t *testing.T) {
	jobs := randomInstance(50, 40, 16)
	costs := workload.Costs(jobs, 16)
	lb := lowerbound.CmaxDualOf(costs, 16)
	baselines := map[string]func(costs []workload.Cost, m int, lb float64) (*sched.Schedule, error){
		"MinWorkListOf":  func(c []workload.Cost, m int, _ float64) (*sched.Schedule, error) { return MinWorkListOf(c, m) },
		"MaxProcsListOf": func(c []workload.Cost, m int, _ float64) (*sched.Schedule, error) { return MaxProcsListOf(c, m) },
		"GammaListOf":    GammaListOf,
	}
	// A job no count on m = 4 fits gets MRT's error, not an allocation
	// on 0 processors.
	rigidWide := &workload.Job{
		ID: 0, Kind: workload.Rigid, SeqTime: 10, MinProcs: 8, MaxProcs: 8,
		Model: workload.Linear{}, Weight: 1, DueDate: -1,
	}
	moldableWide := &workload.Job{
		ID: 0, Kind: workload.Moldable, SeqTime: 10, MinProcs: 6, MaxProcs: 12,
		Model: workload.Linear{}, Weight: 1, DueDate: -1,
	}
	for name, f := range baselines {
		for _, j := range []*workload.Job{rigidWide, moldableWide} {
			_, err := f(workload.Costs([]*workload.Job{j}, 4), 4, 1)
			if want := "moldable: job 0 cannot run on 4 processors"; err == nil || err.Error() != want {
				t.Errorf("%s, job on [%d,%d] with m = 4: error %v, want %q", name, j.MinProcs, j.MaxProcs, err, want)
			}
		}
	}
	for name, f := range baselines {
		s, err := f(costs, 16, lb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
			t.Fatalf("%s: invalid schedule: %v", name, err)
		}
		if err := s.Covers(jobs); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Baseline allocations differ from the original moldable jobs'
		// open ranges, but must reference the original pointers.
		for _, a := range s.Allocs {
			if a.Job != jobs[a.Job.ID] {
				t.Fatalf("%s: schedule references cloned job %d", name, a.Job.ID)
			}
		}
	}
}

func TestMRTBeatsNaiveBaselinesOnParallelWork(t *testing.T) {
	// Strong-speedup jobs: MinWorkList (all sequential) should be clearly
	// worse than MRT.
	var jobs []*workload.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, mold(i, 64, 16, workload.PowerLaw{Sigma: 0.95}))
	}
	m := 16
	mrt, err := MRT(jobs, m, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := MinWorkListOf(workload.Costs(jobs, m), m)
	if err != nil {
		t.Fatal(err)
	}
	if mrt.Schedule.Makespan() >= seq.Makespan() {
		t.Fatalf("MRT %v not better than sequential baseline %v on parallel work",
			mrt.Schedule.Makespan(), seq.Makespan())
	}
}

// Property: MRT always emits a valid complete schedule with the shelf
// invariant, for arbitrary monotone random instances.
func TestMRTProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8) bool {
		n := int(nRaw%40) + 1
		m := int(mRaw%30) + 2
		jobs := randomInstance(seed, n, m)
		res, err := MRT(jobs, m, 0.02)
		if err != nil {
			return false
		}
		if res.Schedule.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}) != nil {
			return false
		}
		if res.Schedule.Covers(jobs) != nil {
			return false
		}
		mk := res.Schedule.Makespan()
		return mk <= 1.5*res.Lambda*(1+1e-6) && mk >= lowerbound.CmaxDualOf(workload.Costs(jobs, m), m)*(1-1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the knapsack allotment never selects more total work than the
// greedy allotment at the same λ (it minimizes work under the width
// constraint; greedy ignores the constraint but picks γ(λ) which is the
// work-minimal deadline-λ allocation... so greedy work ≤ knapsack work is
// also possible — instead we check both respect the area bound).
func TestAllotmentAreaProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		m := rng.IntRange(2, 24)
		jobs := randomInstance(seed, rng.IntRange(1, 40), m)
		lambda := lowerbound.CmaxDualOf(workload.Costs(jobs, m), m) * rng.Range(1.0, 3.0)
		for _, f := range []AllotFunc{SelectAllotments, GreedyAllotments} {
			if allot, ok := f(workload.Costs(jobs, m), m, lambda); ok {
				if totalWork(allot) > lambda*float64(m)*(1+1e-9) {
					return false
				}
				for _, a := range allot {
					if a.Time > lambda*(1+1e-9) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestRhoConstant(t *testing.T) {
	if math.Abs(Rho-1.5) > 0 {
		t.Fatal("Rho drifted from the §4.1 value")
	}
}

// TestMRTRejectsNonFiniteEps: a NaN or infinite eps used to turn the
// bisection off (hi-lo > eps*lo is false), so MRT returned its doubling
// guess: λ = 1241.23 after 0 iterations on this instance, against
// 625.46 after 7 at eps 0.01. It is an error now, as for bicriteria's
// InitialDeadline; eps ≤ 0 still takes the default 0.01.
func TestMRTRejectsNonFiniteEps(t *testing.T) {
	jobs := workload.Parallel(workload.GenConfig{N: 30, M: 16, Seed: 4})
	for _, eps := range []float64{0.01, 0, -1} {
		res, err := MRT(jobs, 16, eps)
		if err != nil {
			t.Fatalf("eps %v: %v", eps, err)
		}
		if math.Abs(res.Lambda-625.46) > 0.01 || res.Iterations != 7 {
			t.Fatalf("eps %v: λ = %v after %d iterations, want 625.46 after 7", eps, res.Lambda, res.Iterations)
		}
	}
	costs := workload.Costs(jobs, 16)
	lb := lowerbound.CmaxDualOf(costs, 16)
	for _, eps := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if res, err := MRT(jobs, 16, eps); err == nil {
			t.Errorf("MRT with eps %v: λ = %v after %d iterations, want an error", eps, res.Lambda, res.Iterations)
		}
		if _, err := MRTWithAllotOf(costs, 16, lb, eps, GreedyAllotments); err == nil {
			t.Errorf("MRTWithAllotOf with eps %v: no error", eps)
		}
	}
}
