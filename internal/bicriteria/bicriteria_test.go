package bicriteria

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/lowerbound"
	"repro/internal/moldable"
	"repro/internal/sched"
	"repro/internal/workload"
)

func offlineJobs(seed uint64, n, m int, parallel bool) []*workload.Job {
	cfg := workload.GenConfig{N: n, M: m, Seed: seed, Weighted: true}
	if parallel {
		return workload.Parallel(cfg)
	}
	return workload.Sequential(cfg)
}

func TestScheduleEmpty(t *testing.T) {
	res, err := Schedule(nil, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Allocs) != 0 {
		t.Fatal("empty instance produced allocations")
	}
	if res.CmaxRatio() != 1 || res.WCRatio() != 1 {
		t.Fatal("degenerate ratios != 1")
	}
}

func TestScheduleValidCompleteSequential(t *testing.T) {
	jobs := offlineJobs(1, 80, 16, false)
	res, err := Schedule(jobs, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Covers(jobs); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleValidCompleteParallel(t *testing.T) {
	jobs := offlineJobs(2, 80, 16, true)
	res, err := Schedule(jobs, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Covers(jobs); err != nil {
		t.Fatal(err)
	}
}

func TestDoublingDeadlines(t *testing.T) {
	jobs := offlineJobs(3, 60, 16, true)
	res, err := Schedule(jobs, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) < 2 {
		t.Skipf("only %d batches; doubling not observable", len(res.Batches))
	}
	for i := 1; i < len(res.Batches); i++ {
		if res.Batches[i].Deadline < res.Batches[i-1].Deadline*2-1e-9 {
			t.Fatalf("deadlines not doubling: %v -> %v",
				res.Batches[i-1].Deadline, res.Batches[i].Deadline)
		}
		if res.Batches[i].Start < res.Batches[i-1].End-1e-9 {
			t.Fatalf("batches overlap: %v before %v",
				res.Batches[i].Start, res.Batches[i-1].End)
		}
	}
}

func TestRatiosWithinTheory(t *testing.T) {
	// §4.4: 4ρ = 6 on both criteria. Measured against lower bounds the
	// ratios must stay within the envelope (and in practice far below).
	bound := TheoreticalRatio(1.5)
	for seed := uint64(0); seed < 6; seed++ {
		for _, parallel := range []bool{false, true} {
			jobs := offlineJobs(seed, 100, 20, parallel)
			res, err := Schedule(jobs, 20, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r := res.CmaxRatio(); r > bound || r < 1-1e-9 {
				t.Fatalf("seed %d parallel=%v: Cmax ratio %v outside [1, %v]",
					seed, parallel, r, bound)
			}
			if r := res.WCRatio(); r > bound || r < 1-1e-9 {
				t.Fatalf("seed %d parallel=%v: ΣwC ratio %v outside [1, %v]",
					seed, parallel, r, bound)
			}
		}
	}
}

func TestOnlineReleasesRespected(t *testing.T) {
	jobs := workload.Parallel(workload.GenConfig{
		N: 50, M: 16, Seed: 7, Weighted: true, ArrivalRate: 0.1,
	})
	res, err := Schedule(jobs, 16, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err) // includes release checks
	}
	if err := res.Schedule.Covers(jobs); err != nil {
		t.Fatal(err)
	}
}

func TestHeavyJobsFinishEarlier(t *testing.T) {
	// Two identical long jobs, one heavy one light, plus filler: the
	// heavy one must not complete after the light one.
	mk := func(id int, w float64) *workload.Job {
		return &workload.Job{
			ID: id, Kind: workload.Rigid, Weight: w, DueDate: -1,
			SeqTime: 50, MinProcs: 4, MaxProcs: 4, Model: workload.Linear{},
		}
	}
	jobs := []*workload.Job{mk(1, 100), mk(2, 1)}
	res, err := Schedule(jobs, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var endHeavy, endLight float64
	for _, a := range res.Schedule.Allocs {
		if a.Job.ID == 1 {
			endHeavy = a.End()
		} else {
			endLight = a.End()
		}
	}
	if endHeavy > endLight {
		t.Fatalf("heavy job ends at %v after light at %v", endHeavy, endLight)
	}
}

func TestInitialDeadlineOption(t *testing.T) {
	jobs := offlineJobs(8, 30, 8, true)
	a, err := Schedule(jobs, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Schedule(jobs, 8, Options{InitialDeadline: 1000000})
	if err != nil {
		t.Fatal(err)
	}
	// A huge initial deadline collapses everything into one batch.
	if len(b.Batches) != 1 {
		t.Fatalf("huge d gave %d batches, want 1", len(b.Batches))
	}
	if err := b.Schedule.Covers(jobs); err != nil {
		t.Fatal(err)
	}
	_ = a
}

func TestImpossibleJobRejected(t *testing.T) {
	j := &workload.Job{
		ID: 1, Kind: workload.Rigid, Weight: 1, DueDate: -1,
		SeqTime: 10, MinProcs: 16, MaxProcs: 16, Model: workload.Linear{},
	}
	if _, err := Schedule([]*workload.Job{j}, 4, Options{}); err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestFig2SeriesSmall(t *testing.T) {
	pts, err := Fig2Series(Fig2Config{
		M: 16, Ns: []int{5, 20}, Seed: 1, Reps: 2, Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if p.CmaxRatio < 1-1e-9 || p.CmaxRatio > 6 {
			t.Fatalf("n=%d: Cmax ratio %v out of range", p.N, p.CmaxRatio)
		}
		if p.WCRatio < 1-1e-9 || p.WCRatio > 6 {
			t.Fatalf("n=%d: ΣwC ratio %v out of range", p.N, p.WCRatio)
		}
	}
}

func TestWriteFig2(t *testing.T) {
	np := []Fig2Point{{N: 10, CmaxRatio: 1.5, WCRatio: 2.0}}
	p := []Fig2Point{{N: 10, CmaxRatio: 1.2, WCRatio: 1.8}}
	var sb strings.Builder
	WriteFig2(&sb, 16, np, p)
	out := sb.String()
	for _, want := range []string{"16-machine cluster", "WiCi ratio", "Cmax ratio", "1.500", "1.200"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// Property: the doubling algorithm emits valid, complete schedules with
// both ratios inside the 4ρ envelope, over random mixed workloads.
func TestBicriteriaProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8, parallel bool) bool {
		n := int(nRaw%40) + 1
		m := int(mRaw%14) + 2
		jobs := offlineJobs(seed, n, m, parallel)
		res, err := Schedule(jobs, m, Options{})
		if err != nil {
			return false
		}
		if res.Schedule.Validate() != nil || res.Schedule.Covers(jobs) != nil {
			return false
		}
		return res.CmaxRatio() <= 6+1e-9 && res.WCRatio() <= 6+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxWeightBatchSelectsByDensity(t *testing.T) {
	// Budget for ~one job: the heavy-per-area job must win the batch.
	mk := func(id int, seq, w float64) *workload.Job {
		return &workload.Job{
			ID: id, Kind: workload.Rigid, Weight: w, DueDate: -1,
			SeqTime: seq, MinProcs: 4, MaxProcs: 4, Model: workload.Linear{},
		}
	}
	dense := mk(1, 40, 100) // time 10 on 4 procs
	sparse := mk(2, 40, 1)
	res, err := Schedule([]*workload.Job{sparse, dense}, 4, Options{InitialDeadline: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 2 || res.Batches[0].JobCount != 1 || res.Batches[0].Deadline != 10 {
		t.Fatalf("batches %+v, want the first to hold one job under deadline 10", res.Batches)
	}
	if first := res.Schedule.Allocs[0]; first.Job != dense || first.Start != 0 {
		t.Fatalf("density order ignored: first batch runs job %d at %v", first.Job.ID, first.Start)
	}
}

func TestMaxWeightBatchRespectsDeadline(t *testing.T) {
	mk := func(id int, seq float64) *workload.Job {
		return &workload.Job{
			ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1,
			SeqTime: seq, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
		}
	}
	// One job too long for the deadline: no batch until it has doubled
	// past the job's time (10 → 160 ≥ 100), and none of the empty
	// attempts moves the clock.
	res, err := Schedule([]*workload.Job{mk(1, 100)}, 4, Options{InitialDeadline: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 || res.Batches[0].Deadline != 160 || res.Batches[0].Start != 0 {
		t.Fatalf("over-deadline job: batches %+v, want one at deadline 160 from time 0", res.Batches)
	}
	// Feasible job: scheduled under the first deadline, within 3d/2.
	res, err = Schedule([]*workload.Job{mk(2, 8)}, 4, Options{InitialDeadline: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 || res.Batches[0].Deadline != 10 || res.Batches[0].JobCount != 1 {
		t.Fatalf("feasible job: batches %+v, want one at deadline 10", res.Batches)
	}
	if mk := res.Schedule.Makespan(); mk > 15+1e-9 {
		t.Fatalf("batch makespan %v exceeds 3d/2", mk)
	}
}

func TestScheduleManyEqualJobsBatchGrowth(t *testing.T) {
	// With identical unit jobs and m=1, batches must contain
	// geometrically growing job counts (deadline doubling).
	var jobs []*workload.Job
	for i := 0; i < 64; i++ {
		jobs = append(jobs, &workload.Job{
			ID: i, Kind: workload.Rigid, Weight: 1, DueDate: -1,
			SeqTime: 1, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
		})
	}
	res, err := Schedule(jobs, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) < 3 {
		t.Skipf("only %d batches", len(res.Batches))
	}
	for i := 1; i < len(res.Batches)-1; i++ { // last batch may be partial
		if res.Batches[i].JobCount < res.Batches[i-1].JobCount {
			t.Fatalf("batch %d count %d below previous %d",
				i, res.Batches[i].JobCount, res.Batches[i-1].JobCount)
		}
	}
}

// Experiment cells share one []*Job and cost it for different platform
// widths at the same time (scenario cells of one fan-out run in a worker
// pool), and the cells of one width share its cost summaries. Cost
// summaries live in each cell's frame, never on the Job, and no
// algorithm writes the summaries it is given, so concurrent cells must
// reproduce their sequential results; run under -race this also proves
// nothing writes to the shared jobs or summaries, the frozen clones of
// the list baselines included.
func TestConcurrentCellsShareJobs(t *testing.T) {
	jobs := workload.Parallel(workload.GenConfig{N: 150, M: 64, Seed: 5, Weighted: true, ArrivalRate: 0.05})
	type outcome struct{ bi, wc, mrt, minWork, maxProcs, gamma float64 }
	cell := func(costs []workload.Cost, m int) (o outcome, err error) {
		res, err := ScheduleOf(costs, m, Options{})
		if err != nil {
			return o, err
		}
		o.bi, o.wc = res.Schedule.Makespan(), res.WCRatio()
		lb := lowerbound.CmaxDualOf(costs, m)
		mrt, err := moldable.MRTOf(costs, m, lb, 0.01)
		if err != nil {
			return o, err
		}
		o.mrt = mrt.Schedule.Makespan()
		for _, b := range []struct {
			run func() (*sched.Schedule, error)
			out *float64
		}{
			{func() (*sched.Schedule, error) { return moldable.MinWorkListOf(costs, m) }, &o.minWork},
			{func() (*sched.Schedule, error) { return moldable.MaxProcsListOf(costs, m) }, &o.maxProcs},
			{func() (*sched.Schedule, error) { return moldable.GammaListOf(costs, m, lb) }, &o.gamma},
		} {
			s, err := b.run()
			if err != nil {
				return o, err
			}
			*b.out = s.Makespan()
		}
		return o, nil
	}
	widths := []int{16, 64, 40, 100}
	want := make([]outcome, len(widths))
	costs := make([][]workload.Cost, len(widths))
	for i, m := range widths {
		var err error
		if want[i], err = cell(workload.Costs(jobs, m), m); err != nil {
			t.Fatal(err)
		}
		costs[i] = workload.Costs(jobs, m)
	}
	const perWidth = 2 // cells sharing one width's summaries
	for round := 0; round < 3; round++ {
		got := make([]outcome, perWidth*len(widths))
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for k := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := k / perWidth
				got[k], errs[k] = cell(costs[i], widths[i])
			}()
		}
		wg.Wait()
		for k := range got {
			if errs[k] != nil {
				t.Fatal(errs[k])
			}
			if i := k / perWidth; got[k] != want[i] {
				t.Fatalf("m=%d: concurrent cell %+v, sequential %+v", widths[i], got[k], want[i])
			}
		}
	}
}
