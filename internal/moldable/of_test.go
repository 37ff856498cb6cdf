package moldable

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sameOutcome compares a result and error with the reference's: same
// error text, or the same λ and iteration count bit for bit and the same
// schedule.
func sameOutcome(t *testing.T, what string, got, want *Result, gotErr, wantErr error) bool {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: error %v, reference %v", what, gotErr, wantErr)
		return false
	}
	if wantErr != nil {
		return true
	}
	if math.Float64bits(got.Lambda) != math.Float64bits(want.Lambda) || got.Iterations != want.Iterations {
		t.Errorf("%s: λ %v after %d iterations, reference %v after %d", what, got.Lambda, got.Iterations, want.Lambda, want.Iterations)
		return false
	}
	return sameSchedule(t, what, got.Schedule, want.Schedule)
}

// sameList compares a list baseline's outcome with the reference's.
func sameList(t *testing.T, what string, got, want *sched.Schedule, gotErr, wantErr error) bool {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Errorf("%s: error %v, reference %v", what, gotErr, wantErr)
		return false
	}
	return wantErr != nil || sameSchedule(t, what, got, want)
}

// TestOfFormsMatchReference: the cost-summary entry points, handed one
// []Cost and one dual bound per instance, equal the job-slice forms they
// replaced bit for bit — schedule, λ, iterations and the bound the
// search starts from, or the error text — on instances with
// non-monotone tables, Model-only jobs, rigid jobs (some wider than the
// platform, which only the searches are given) and twins sharing an
// ID, and none of them writes the summaries it is given.
func TestOfFormsMatchReference(t *testing.T) {
	var ran, failed, listed int
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		jobs, m := diffInstance(rng, 40, 40)
		eps := []float64{0.01, 0.05, 0.3, 0}[rng.Intn(4)]
		costs := workload.Costs(jobs, m)
		kept := slices.Clone(costs)
		lb := lowerbound.CmaxDualOf(costs, m)
		fail := func(what string) bool {
			t.Logf("failing seed: %d (%s, n=%d m=%d eps=%v)", seed, what, len(jobs), m, eps)
			return false
		}

		want, wantLB, wantErr := referenceMRT(jobs, m, eps, referenceSelectAllotments)
		if wantErr == nil && math.Float64bits(lb) != math.Float64bits(wantLB) {
			t.Errorf("bound %v, reference search started from %v", lb, wantLB)
			return fail("bound")
		}
		got, err := MRT(jobs, m, eps)
		if !sameOutcome(t, "MRT", got, want, err, wantErr) {
			return fail("MRT")
		}
		got, err = MRTOf(costs, m, lb, eps)
		if !sameOutcome(t, "MRTOf", got, want, err, wantErr) {
			return fail("MRTOf")
		}
		got, err = MRTWithAllotOf(costs, m, lb, eps, SelectAllotments)
		if !sameOutcome(t, "MRTWithAllotOf(SelectAllotments)", got, want, err, wantErr) {
			return fail("MRTWithAllotOf(SelectAllotments)")
		}
		want, _, wantErr = referenceMRT(jobs, m, eps, GreedyAllotments)
		got, err = MRTWithAllotOf(costs, m, lb, eps, GreedyAllotments)
		if !sameOutcome(t, "MRTWithAllotOf(GreedyAllotments)", got, want, err, wantErr) {
			return fail("MRTWithAllotOf(GreedyAllotments)")
		}

		// The list baselines pin every job at a legal count: they are
		// only defined when every job fits on m.
		fits := !slices.ContainsFunc(costs, func(c workload.Cost) bool { _, p := c.MinTime(); return p == 0 })
		if fits {
			listed++
		}
		for _, b := range []struct {
			name string
			got  func() (*sched.Schedule, error)
			want func() (*sched.Schedule, error)
		}{
			{"MinWorkListOf", func() (*sched.Schedule, error) { return MinWorkListOf(costs, m) },
				func() (*sched.Schedule, error) { return referenceMinWorkList(jobs, m) }},
			{"MaxProcsListOf", func() (*sched.Schedule, error) { return MaxProcsListOf(costs, m) },
				func() (*sched.Schedule, error) { return referenceMaxProcsList(jobs, m) }},
			{"GammaListOf", func() (*sched.Schedule, error) { return GammaListOf(costs, m, lb) },
				func() (*sched.Schedule, error) { return referenceGammaList(jobs, m) }},
		} {
			if !fits {
				break
			}
			got, err := b.got()
			want, wantErr := b.want()
			if !sameList(t, b.name, got, want, err, wantErr) {
				return fail(b.name)
			}
		}
		if !reflect.DeepEqual(costs, kept) {
			t.Errorf("the summaries changed under the entry points")
			return fail("summaries")
		}
		ran++
		if wantErr != nil {
			failed++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 3}); err != nil {
		t.Fatal(err)
	}
	if failed == 0 || failed == ran || listed == 0 {
		t.Fatalf("%d of %d instances failed the greedy search, %d ran the list baselines: both outcomes and the baselines must occur", failed, ran, listed)
	}
}

// TestListBaselinesNameTheirOwnTwins: two jobs that share an ID stay two
// jobs through the list baselines and MRT: each allocation names the job
// whose width it priced, at a width that job allows, and the schedule
// validates whole.
func TestListBaselinesNameTheirOwnTwins(t *testing.T) {
	const m = 4
	// wide's least work, least time and γ(5) are all at 2 processors.
	wide := &workload.Job{ID: 1, Kind: workload.Moldable, Weight: 1, DueDate: -1,
		MinProcs: 1, MaxProcs: 4, Times: []float64{10, 4, 4, 4}}
	narrow := &workload.Job{ID: 1, Kind: workload.Rigid, Weight: 1, DueDate: -1,
		MinProcs: 1, MaxProcs: 1, Times: []float64{3}}
	costs := workload.Costs([]*workload.Job{wide, narrow}, m)
	want := map[*workload.Job]int{wide: 2, narrow: 1}
	for _, b := range []struct {
		name string
		list func() (*sched.Schedule, error)
	}{
		{"MinWorkListOf", func() (*sched.Schedule, error) { return MinWorkListOf(costs, m) }},
		{"MaxProcsListOf", func() (*sched.Schedule, error) { return MaxProcsListOf(costs, m) }},
		{"GammaListOf", func() (*sched.Schedule, error) { return GammaListOf(costs, m, 5) }},
	} {
		s, err := b.list()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		named := map[*workload.Job]bool{}
		for _, a := range s.Allocs {
			one := sched.New(m)
			one.Add(a)
			if err := one.Validate(); err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
			if a.Procs != want[a.Job] || named[a.Job] {
				t.Fatalf("%s: job %p on %d procs, want each twin once, wide on 2 and narrow on 1", b.name, a.Job, a.Procs)
			}
			named[a.Job] = true
		}
		if len(named) != 2 {
			t.Fatalf("%s: %d allocations name %d twins", b.name, len(s.Allocs), len(named))
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
	}
	r, err := MRT([]*workload.Job{wide, narrow}, m, 0.01)
	if err != nil {
		t.Fatalf("MRT: %v", err)
	}
	named := map[*workload.Job]bool{}
	for _, a := range r.Schedule.Allocs {
		if named[a.Job] || !a.Job.CanRunOn(a.Procs) {
			t.Fatalf("MRT: job %p on %d procs, want each twin once at a width it allows", a.Job, a.Procs)
		}
		named[a.Job] = true
	}
	if len(named) != 2 {
		t.Fatalf("MRT: %d allocations name %d twins", len(r.Schedule.Allocs), len(named))
	}
	// One job listed twice is two allocations of one job, which MRT's own
	// check refuses.
	const twice = "moldable: produced invalid schedule: sched: job 1 scheduled twice"
	if _, err := MRT([]*workload.Job{wide, wide}, m, 0.01); fmt.Sprint(err) != twice {
		t.Fatalf("MRT over one job twice: %v, want %s", err, twice)
	}
}
