package bicriteria

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lowerbound"
	"repro/internal/stats"
	"repro/internal/workload"
)

// diffInstance draws an instance and options meant to reach every branch
// of the doubling scheduler: 1–100 processors, 1–300 jobs (most
// instances small, so a budget buys many of them), off-line or with
// arrivals (bursts of equal release dates included), moldable jobs with
// monotone or arbitrary tables or a model only, rigid jobs, weighted or
// not, runs of twins (equal densities, with equal or distinct IDs), now
// and then a job wider than the platform, and a default or an explicit
// initial deadline. Times are positive and finite: the reference never
// returns on anything else.
func diffInstance(rng *stats.RNG) ([]*workload.Job, int, Options) {
	m := rng.IntRange(1, 100)
	n := rng.IntRange(1, 30)
	if rng.Bool(0.25) {
		n = rng.IntRange(1, 300)
	}
	weighted := rng.Bool(0.6)
	rigidShare := []float64{0, 0.3, 1}[rng.Intn(3)]
	arrivals := rng.Bool(0.5)
	rate := rng.Range(0.01, 2)
	tooWide := rng.Bool(0.04)
	sameIDs := rng.Bool(0.04)

	clock, shortest := 0.0, math.Inf(1)
	jobs := make([]*workload.Job, 0, n)
	for len(jobs) < n {
		seq := rng.Range(1, 100)
		if rng.Bool(0.2) {
			seq = float64(rng.IntRange(1, 4)) * 8 // round values: exact ties
		}
		var model workload.SpeedupModel
		switch rng.Intn(3) {
		case 0:
			model = workload.Amdahl{Alpha: rng.Range(0.02, 0.3)}
		case 1:
			model = workload.PowerLaw{Sigma: rng.Range(0.5, 1.0)}
		default:
			model = workload.Linear{}
		}
		j := &workload.Job{
			ID: len(jobs), Kind: workload.Moldable, Weight: 1, DueDate: -1,
			SeqTime: seq, MinProcs: 1, MaxProcs: rng.IntRange(1, m+m/4+1), Model: model,
		}
		if weighted {
			j.Weight = float64(rng.IntRange(0, 10))
		}
		if arrivals {
			if !rng.Bool(0.2) { // else: same instant as the previous job
				clock += rng.Exp(rate)
			}
			j.Release = clock
		}
		switch shape := rng.Intn(10); {
		case rng.Bool(rigidShare):
			j.Kind = workload.Rigid
			j.MinProcs = rng.IntRange(1, m)
			if rng.Bool(0.3) { // just over half the platform: packings overflow
				j.MinProcs = rng.IntRange(m/2+1, max(m/2+1, 3*m/5))
				j.SeqTime = rng.Range(8, 10) * float64(j.MinProcs)
			}
			j.MaxProcs = j.MinProcs
		case shape < 6:
			j.Times = workload.MakeTable(model, seq, j.MaxProcs)
		case shape < 8: // arbitrary positive table
			j.Times = make([]float64, j.MaxProcs)
			for p := range j.Times {
				j.Times[p] = seq * rng.Range(0.05, 1)
			}
		case shape < 9: // Model-only
		default: // a range that starts above one processor
			j.MinProcs = rng.IntRange(1, j.MaxProcs)
			j.Times = workload.MakeTable(model, seq, j.MaxProcs)[j.MinProcs-1:]
		}
		if tooWide && rng.Bool(0.1) {
			j.Kind, j.MinProcs, j.MaxProcs, j.Times = workload.Rigid, m+1, m+1, nil
		}
		jobs = append(jobs, j)
		for rng.Bool(0.15) && len(jobs) < n { // a run of twins
			twin := j.Clone()
			if !sameIDs {
				twin.ID = len(jobs)
			}
			if arrivals && rng.Bool(0.5) {
				clock += rng.Exp(rate)
				twin.Release = clock
			}
			jobs = append(jobs, twin)
		}
	}
	if !sameIDs { // IDs in no relation to release order: ties on density fall to them
		for i, j := range jobs {
			j.ID = i
		}
		shuffle(rng, len(jobs), func(i, k int) { jobs[i].ID, jobs[k].ID = jobs[k].ID, jobs[i].ID })
	}
	for _, j := range jobs {
		if t, _ := j.MinTime(m); t < shortest {
			shortest = t
		}
	}
	shuffle(rng, len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })

	var opt Options
	if math.IsInf(shortest, 0) {
		return jobs, m, opt // nothing can run: an error either way
	}
	switch rng.Intn(6) {
	case 0:
		opt.InitialDeadline = shortest * rng.Range(0.01, 1) // several empty doublings first
	case 1:
		opt.InitialDeadline = shortest * rng.Range(1, 100) // down to one batch
	}
	return jobs, m, opt
}

// shuffle is a Fisher–Yates pass over n elements through swap.
func shuffle(rng *stats.RNG, n int, swap func(i, k int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, rng.Intn(i+1))
	}
}

// sameResult compares two outcomes of the doubling scheduler field for
// field and bit for bit: error strings, lower bounds, every batch, every
// allocation in order.
func sameResult(t *testing.T, got, want *Result, gotErr, wantErr error) bool {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Errorf("error %v, reference %v", gotErr, wantErr)
		return false
	}
	if wantErr != nil {
		return true
	}
	bits := math.Float64bits
	if bits(got.CmaxLB) != bits(want.CmaxLB) || bits(got.WCLB) != bits(want.WCLB) {
		t.Errorf("bounds (%v, %v), reference (%v, %v)", got.CmaxLB, got.WCLB, want.CmaxLB, want.WCLB)
		return false
	}
	if len(got.Batches) != len(want.Batches) {
		t.Errorf("%d batches, reference %d", len(got.Batches), len(want.Batches))
		return false
	}
	for i, w := range want.Batches {
		g := got.Batches[i]
		if g.JobCount != w.JobCount || bits(g.Deadline) != bits(w.Deadline) ||
			bits(g.Start) != bits(w.Start) || bits(g.End) != bits(w.End) {
			t.Errorf("batch %d is %+v, reference %+v", i, g, w)
			return false
		}
	}
	if got.Schedule.M != want.Schedule.M || len(got.Schedule.Allocs) != len(want.Schedule.Allocs) {
		t.Errorf("%d allocations on %d procs, reference %d on %d",
			len(got.Schedule.Allocs), got.Schedule.M, len(want.Schedule.Allocs), want.Schedule.M)
		return false
	}
	for i, w := range want.Schedule.Allocs {
		g := got.Schedule.Allocs[i]
		if g.Job != w.Job || g.Procs != w.Procs || bits(g.Start) != bits(w.Start) {
			t.Errorf("allocation %d is job %d at %v on %d, reference job %d at %v on %d",
				i, g.Job.ID, g.Start, g.Procs, w.Job.ID, w.Start, w.Procs)
			return false
		}
	}
	return true
}

// TestScheduleMatchesReference: the once-per-batch scheduler against the
// old one kept in reference_test.go, alloc for alloc. `-quickchecks N`
// scales the budget (10 instances per check; CI runs it long).
func TestScheduleMatchesReference(t *testing.T) {
	var batches, empties, idles, errs, multi int
	f := func(seed uint64) bool {
		jobs, m, opt := diffInstance(stats.NewRNG(seed))
		want, wantErr := referenceSchedule(jobs, m, opt)
		got, gotErr := Schedule(jobs, m, opt)
		if !sameResult(t, got, want, gotErr, wantErr) {
			t.Logf("failing seed: %d (n=%d m=%d d=%v)", seed, len(jobs), m, opt.InitialDeadline)
			return false
		}
		if wantErr != nil {
			errs++
			return true
		}
		batches += len(want.Batches)
		if len(want.Batches) > 1 {
			multi++
		}
		for i, b := range want.Batches[1:] {
			if prev := want.Batches[i]; b.Start > prev.End {
				idles++ // the clock waited for a release
			} else if b.Deadline > 2*prev.Deadline {
				empties++ // a deadline under which nothing was scheduled
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 10}); err != nil {
		t.Fatal(err)
	}
	if multi == 0 || empties == 0 || idles == 0 || errs == 0 {
		t.Fatalf("paths not all exercised: %d multi-batch runs, %d empty deadlines, %d idle waits, %d errors",
			multi, empties, idles, errs)
	}
	t.Logf("%d batches, %d multi-batch runs, %d empty deadlines, %d idle waits, %d errors",
		batches, multi, empties, idles, errs)
}

// Hand-built instances for the tie-breaks and tolerances random draws
// meet only by luck.
func TestScheduleCornersMatchReference(t *testing.T) {
	unit := func(id int, release, weight float64) *workload.Job {
		return &workload.Job{
			ID: id, Kind: workload.Rigid, Release: release, Weight: weight, DueDate: -1,
			SeqTime: 1, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
		}
	}
	for name, jobs := range map[string][]*workload.Job{
		// The first batch ends at 1; a release within 1e-12 of the clock
		// counts as released (no idle wait, start at 1 exactly).
		"release within the clock's tolerance": {unit(1, 0, 1), unit(2, 1+5e-13, 1)},
		"release just beyond the tolerance":    {unit(1, 0, 1), unit(2, 1+5e-12, 1)},
		// Equal densities: the lower ID goes first although it was
		// submitted last and released no earlier.
		"equal densities, IDs against list order": {unit(3, 0, 1), unit(2, 0, 1), unit(1, 0, 1)},
		// Zero weights sort last whatever their IDs.
		"zero weights": {unit(1, 0, 0), unit(2, 0, 1), unit(3, 0, 0), unit(4, 0, 2)},
	} {
		want, wantErr := referenceSchedule(jobs, 1, Options{})
		got, gotErr := Schedule(jobs, 1, Options{})
		if !sameResult(t, got, want, gotErr, wantErr) {
			t.Errorf("%s: differs from the reference", name)
		}
	}
}

// TestScheduleRejectsDeadlinesItCannotDouble: a deadline that is not a
// finite non-negative time, or that can never grow past the shortest
// job, used to spin for ever ("nothing fits: double and retry" has no
// exit when doubling goes nowhere). The bound is the test's own, not
// -timeout's.
func TestScheduleRejectsDeadlinesItCannotDouble(t *testing.T) {
	job := func(seq float64) []*workload.Job {
		return []*workload.Job{{
			ID: 1, Kind: workload.Rigid, Weight: 1, DueDate: -1,
			SeqTime: seq, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
		}}
	}
	for name, tc := range map[string]struct {
		jobs []*workload.Job
		opt  Options
	}{
		"NaN initial deadline":      {job(10), Options{InitialDeadline: math.NaN()}},
		"+Inf initial deadline":     {job(10), Options{InitialDeadline: math.Inf(1)}},
		"-Inf initial deadline":     {job(10), Options{InitialDeadline: math.Inf(-1)}},
		"negative initial deadline": {job(10), Options{InitialDeadline: -1}},
		// A zero-time job never constructs (the profile rejects an empty
		// slot): from 1 the deadline doubles to +Inf with nothing
		// selected, from the default (the shortest job: 0) it cannot move.
		"deadline overflows":  {job(0), Options{InitialDeadline: 1}},
		"deadline stuck at 0": {job(0), Options{}},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := Schedule(tc.jobs, 4, tc.opt)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: accepted", name)
			} else if upFront := strings.Contains(name, "initial deadline"); upFront != strings.Contains(err.Error(), "initial deadline") {
				t.Errorf("%s: rejected with %q", name, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: Schedule still running after 2 s", name)
		}
	}
}

// TestScheduleOfMatchesReference: ScheduleOf, handed the jobs' cost
// summaries, is the old scheduler kept in reference_test.go alloc for
// alloc and leaves the summaries as it found them (cells share them).
// Where no job has a release date its CmaxLB is the dual bound bit for
// bit, which the T4 cell passes to moldable.MRTOf as that bound.
func TestScheduleOfMatchesReference(t *testing.T) {
	var zeroReleases int
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		jobs, m, opt := diffInstance(rng)
		if rng.Bool(0.3) {
			for _, j := range jobs {
				j.Release = 0
			}
		}
		costs := workload.Costs(jobs, m)
		kept := slices.Clone(costs)
		want, wantErr := referenceSchedule(jobs, m, opt)
		got, gotErr := ScheduleOf(costs, m, opt)
		if !sameResult(t, got, want, gotErr, wantErr) || !reflect.DeepEqual(costs, kept) {
			t.Logf("failing seed: %d (n=%d m=%d d=%v)", seed, len(jobs), m, opt.InitialDeadline)
			return false
		}
		if gotErr == nil && !slices.ContainsFunc(jobs, func(j *workload.Job) bool { return j.Release != 0 }) {
			zeroReleases++
			if dual := lowerbound.CmaxDualOf(costs, m); math.Float64bits(got.CmaxLB) != math.Float64bits(dual) {
				t.Errorf("seed %d: CmaxLB %v without releases, dual bound %v", seed, got.CmaxLB, dual)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 2}); err != nil {
		t.Fatal(err)
	}
	if zeroReleases == 0 {
		t.Fatal("no instance without release dates was scheduled")
	}
}
