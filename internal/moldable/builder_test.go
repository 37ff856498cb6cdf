package moldable

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// diffInstance draws an instance meant to reach every branch of the
// selection: monotone tables of the three families, tables with random
// (non-monotone) entries, Model-only jobs, rigid jobs, ranges that start
// above one processor or end beyond m, and runs of identical jobs (equal
// times and equal IDs tie the shelf-2 sort). One instance in five is
// made of rigid jobs just wider than half the platform and about
// equally long: they pass the area test and still cannot be packed side
// by side, which is how a selected prefix overflows the 3λ/2 envelope.
func diffInstance(rng *stats.RNG, maxN, maxM int) ([]*workload.Job, int) {
	m := rng.IntRange(1, maxM)
	n := rng.IntRange(1, maxN)
	jobs := make([]*workload.Job, 0, n)
	if rng.Bool(0.2) {
		for n = min(n, 8); len(jobs) < n; {
			jobs = append(jobs, wideJob(len(jobs), rng.IntRange(m/2+1, max(m/2+1, 3*m/5)), rng.Range(8, 10)))
		}
		return jobs, m
	}
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
		switch shape := rng.Intn(10); {
		case shape < 5:
			j.Times = workload.MakeTable(model, seq, j.MaxProcs)
		case shape < 7: // arbitrary positive table
			j.Times = make([]float64, j.MaxProcs)
			for p := range j.Times {
				j.Times[p] = seq * rng.Range(0.05, 1)
			}
		case shape < 8: // Model-only
		case shape < 9: // rigid, now and then wider than the platform
			j.Kind = workload.Rigid
			j.MinProcs = rng.IntRange(1, m)
			if rng.Bool(0.1) {
				j.MinProcs = m + 1
			}
			j.MaxProcs = j.MinProcs
		default: // a range that starts above one processor
			j.MinProcs = rng.IntRange(1, j.MaxProcs)
			j.Times = workload.MakeTable(model, seq, j.MaxProcs)[j.MinProcs-1:]
		}
		jobs = append(jobs, j)
		for rng.Bool(0.15) && len(jobs) < n { // a run of twins
			c := *j
			twin := &c
			if rng.Bool(0.5) {
				twin.ID = len(jobs)
			}
			jobs = append(jobs, twin)
		}
	}
	return jobs, m
}

// wideJob is a rigid job on procs processors for time t.
func wideJob(id, procs int, t float64) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1,
		SeqTime: t * float64(procs), MinProcs: procs, MaxProcs: procs, Model: workload.Linear{},
	}
}

// diffGuess draws a guess around the scale of the instance: below the
// dual bound (work over the area, jobs that cannot meet it), near it
// (forced shelf-1 jobs, a binding knapsack) and well above it.
func diffGuess(rng *stats.RNG, jobs []*workload.Job, m int) float64 {
	var scale float64
	for _, j := range jobs {
		if t, _ := j.MinTime(m); !math.IsInf(t, 0) {
			scale = math.Max(scale, t)
		}
	}
	if lb := lowerbound.CmaxDualOf(workload.Costs(jobs, m), m); lb > 0 && rng.Bool(0.7) {
		scale = lb
	}
	switch rng.Intn(4) {
	case 0:
		return scale * rng.Range(0.2, 1)
	case 1:
		return scale * rng.Range(0.9, 1.3)
	case 2:
		return scale * rng.Range(1, 2.5)
	default:
		return scale * rng.Range(2, 8)
	}
}

func sameAllotments(t *testing.T, what string, got, want []Allotment) bool {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d allotments, reference %d", what, len(got), len(want))
		return false
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Job != w.Job || g.Procs != w.Procs || g.Shelf != w.Shelf ||
			math.Float64bits(g.Time) != math.Float64bits(w.Time) {
			t.Errorf("%s: allotment %d is %+v, reference %+v", what, i, g, w)
			return false
		}
	}
	return true
}

func sameSchedule(t *testing.T, what string, got, want *sched.Schedule) bool {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("%s: schedule %v, reference %v", what, got != nil, want != nil)
		return false
	}
	if want == nil {
		return true
	}
	if got.M != want.M || len(got.Allocs) != len(want.Allocs) {
		t.Errorf("%s: %d allocations on %d procs, reference %d on %d",
			what, len(got.Allocs), got.M, len(want.Allocs), want.M)
		return false
	}
	for i := range want.Allocs {
		g, w := got.Allocs[i], want.Allocs[i]
		if g.Job != w.Job || g.Procs != w.Procs || math.Float64bits(g.Start) != math.Float64bits(w.Start) {
			t.Errorf("%s: allocation %d is job %d at %v on %d, reference job %d at %v on %d",
				what, i, g.Job.ID, g.Start, g.Procs, w.Job.ID, w.Start, w.Procs)
			return false
		}
	}
	return true
}

// diffCounts says which outcomes a differential run met, so a test can
// require that the interesting ones occurred.
type diffCounts struct {
	selected, refused, packed, overflowed int
	unmeetable, overWidth, overArea       int
}

// TestBuilderMatchesSelectAllotments: one prepared guess answers every
// prefix exactly as a from-scratch selection and construction of that
// prefix — same ok, same allotments bit for bit, same schedule — whether
// the table was cut for the whole list (MRT, SelectAllotments), for
// every prefix (the batch step) or from some prefix in between, on a
// Builder that is reused from instance to instance.
func TestBuilderMatchesSelectAllotments(t *testing.T) {
	var b Builder
	var c diffCounts
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		jobs, m := diffInstance(rng, 40, 40)
		costs := workload.Costs(jobs, m)
		lambda := diffGuess(rng, jobs, m)
		ok := true
		for _, lo := range []int{1, rng.IntRange(1, len(costs)), len(costs)} {
			b.prepare(costs, m, lambda, lo)
			for n := lo; n <= len(costs) && ok; n++ {
				ok = comparePrefix(t, &b, &c, costs, n, m, lambda)
			}
		}
		pub, pubOK := SelectAllotments(costs, m, lambda)
		want, wantOK := referenceSelectAllotments(costs, m, lambda)
		if pubOK != wantOK || !sameAllotments(t, "SelectAllotments", pub, want) {
			t.Errorf("SelectAllotments ok=%v, reference ok=%v", pubOK, wantOK)
			ok = false
		}
		if !ok {
			t.Logf("failing seed: %d (n=%d m=%d λ=%v)", seed, len(costs), m, lambda)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 5}); err != nil {
		t.Fatal(err)
	}
	if c.selected == 0 || c.refused == 0 || c.packed == 0 || c.overflowed == 0 ||
		c.unmeetable == 0 || c.overWidth == 0 || c.overArea == 0 {
		t.Fatalf("outcomes not all exercised: %+v", c)
	}
	t.Logf("%+v", c)
}

// comparePrefix checks one prefix of a prepared guess against the
// reference, selection first and construction after.
func comparePrefix(t *testing.T, b *Builder, c *diffCounts, costs []workload.Cost, n, m int, lambda float64) bool {
	t.Helper()
	want, wantOK := referenceSelectAllotments(costs[:n], m, lambda)
	gotOK := b.selectPrefix(n)
	if gotOK != wantOK {
		t.Errorf("prefix %d: selection ok=%v, reference ok=%v", n, gotOK, wantOK)
		return false
	}
	// Where the reference got as far as the area test, the work it
	// weighed is the work read off the shared table, to the last bit:
	// the prefix sums and the walked-back savings add up in its order.
	if work := referenceTotalWork; !math.IsNaN(work) && math.Float64bits(b.minWork(n)) != math.Float64bits(work) {
		t.Errorf("prefix %d: least work %v, reference %v", n, b.minWork(n), work)
		return false
	}
	if !wantOK {
		c.refused++
		classifyRefusal(c, costs[:n], m, lambda)
	} else {
		c.selected++
		if !sameAllotments(t, "selection", b.allot, want) {
			return false
		}
	}
	wantS, wantOK := referenceConstruct(costs[:n], m, lambda, referenceSelectAllotments)
	gotS, gotOK := b.construct(n)
	if gotOK != wantOK || !sameSchedule(t, "construction", gotS, wantS) {
		t.Errorf("prefix %d: construction ok=%v, reference ok=%v", n, gotOK, wantOK)
		return false
	}
	switch {
	case gotOK:
		c.packed++
	case b.selectPrefix(n):
		c.overflowed++ // selected, but the packing left the 3λ/2 envelope
	}
	return true
}

// classifyRefusal names why the reference selection refuses a prefix, in
// the order the selection tests.
func classifyRefusal(c *diffCounts, costs []workload.Cost, m int, lambda float64) {
	forced := 0
	for i := range costs {
		q1 := costs[i].Gamma(lambda)
		if q1 == 0 {
			c.unmeetable++
			return
		}
		if costs[i].Gamma(lambda/2) == 0 {
			forced += q1
		}
	}
	if forced > m {
		c.overWidth++
	} else {
		c.overArea++
	}
}

// TestLargestPrefixMatchesEvictionLoop: the batch step's one question —
// the longest constructible prefix under a deadline — gets the answer of
// the old eviction loop, schedule included, on one Builder carried over
// every instance (larger ones too, as fig2 has them).
func TestLargestPrefixMatchesEvictionLoop(t *testing.T) {
	var b Builder
	full, evicted, none := 0, 0, 0
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		maxN, maxM := 40, 40
		if rng.Bool(0.2) {
			maxN, maxM = 300, 100
		}
		jobs, m := diffInstance(rng, maxN, maxM)
		costs := workload.Costs(jobs, m)
		d := diffGuess(rng, jobs, m)
		want, wantN := referenceLargestPrefix(costs, m, d)
		got, gotN := b.LargestPrefixForDeadline(costs, m, d)
		if gotN != wantN || !sameSchedule(t, "largest prefix", got, want) {
			t.Errorf("kept %d of %d jobs, reference %d", gotN, len(costs), wantN)
			t.Logf("failing seed: %d (m=%d d=%v)", seed, m, d)
			return false
		}
		switch wantN {
		case len(costs):
			full++
		case 0:
			none++
		default:
			evicted++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 10}); err != nil {
		t.Fatal(err)
	}
	if full == 0 || evicted == 0 || none == 0 {
		t.Fatalf("outcomes not all exercised: %d whole lists, %d proper prefixes, %d failures", full, evicted, none)
	}
	t.Logf("%d whole lists, %d proper prefixes, %d failures", full, evicted, none)
}

// Hand-built corners of the selection the random instances only reach by
// luck, each checked on every prefix.
func TestBuilderCorners(t *testing.T) {
	seqJob := func(id int, t float64) *workload.Job { return mold(id, t, 1, workload.Linear{}) }
	for name, tc := range map[string]struct {
		jobs   []*workload.Job
		m      int
		lambda float64
	}{
		// γ(λ) = 0 in the middle: prefixes up to it select, none beyond.
		"unmeetable job in the middle": {
			[]*workload.Job{seqJob(0, 4), seqJob(1, 6), seqJob(2, 100), seqJob(3, 5)}, 4, 10},
		// Sequential jobs longer than λ/2 are forced onto shelf 1: five of
		// them overflow four processors, four do not.
		"forced width over m": {
			[]*workload.Job{seqJob(0, 8), seqJob(1, 8), seqJob(2, 8), seqJob(3, 8), seqJob(4, 8)}, 4, 10},
		// Work over the area from the third job on.
		"work over the area": {
			[]*workload.Job{seqJob(0, 5), seqJob(1, 5), seqJob(2, 5), seqJob(3, 5), seqJob(4, 5)}, 2, 5.5},
		// The knapsack binds: every job saves work on shelf 1, only some fit.
		"binding knapsack": {
			[]*workload.Job{
				mold(0, 40, 8, workload.PowerLaw{Sigma: 0.6}), mold(1, 36, 8, workload.PowerLaw{Sigma: 0.7}),
				mold(2, 30, 8, workload.Amdahl{Alpha: 0.1}), mold(3, 44, 8, workload.PowerLaw{Sigma: 0.8}),
				mold(4, 20, 8, workload.Amdahl{Alpha: 0.2}),
			}, 8, 24},
		"non-positive guess": {[]*workload.Job{seqJob(0, 1)}, 2, 0},
		// Three of these run one after the other inside 3λ/2 = 30, the
		// fourth passes the area test (1836 ≤ 2000) and overflows the
		// packing, the fifth fails the area test.
		"packing overflow": {wideJobs(5), 100, 20},
	} {
		costs := workload.Costs(tc.jobs, tc.m)
		var b Builder
		var c diffCounts
		b.prepare(costs, tc.m, tc.lambda, 1)
		for n := 1; n <= len(costs); n++ {
			if !comparePrefix(t, &b, &c, costs, n, tc.m, tc.lambda) {
				t.Fatalf("%s: prefix %d differs from the reference", name, n)
			}
		}
		want, wantN := referenceLargestPrefix(costs, tc.m, tc.lambda)
		got, gotN := b.LargestPrefixForDeadline(costs, tc.m, tc.lambda)
		if gotN != wantN || !sameSchedule(t, name, got, want) {
			t.Fatalf("%s: kept %d jobs, reference %d", name, gotN, wantN)
		}
		if name == "packing overflow" && (c.overflowed != 1 || c.overArea != 1 || gotN != 3) {
			t.Fatalf("%s: %+v, kept %d: want one overflow, one area refusal, three jobs kept", name, c, gotN)
		}
	}
}

// wideJobs returns n rigid jobs on 51 of 100 processors for 9 time
// units each: no two run side by side.
func wideJobs(n int) []*workload.Job {
	jobs := make([]*workload.Job, n)
	for i := range jobs {
		jobs[i] = wideJob(i, 51, 9)
	}
	return jobs
}

// TestPackMatchesReferenceOnGreedyAllotments: the ablation's selector
// ignores the shelf-1 width budget, so its allotments can overflow the
// first shelf; the shared packing must refuse exactly the guesses the
// old construction refused and build the same schedules otherwise, and
// MRT over the exported knapsack selector must be MRT.
func TestPackMatchesReferenceOnGreedyAllotments(t *testing.T) {
	var b Builder
	built, refused := 0, 0
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		jobs, m := diffInstance(rng, 40, 40)
		costs := workload.Costs(jobs, m)
		lambda := diffGuess(rng, jobs, m)
		want, wantOK := referenceConstruct(costs, m, lambda, GreedyAllotments)
		var got *sched.Schedule
		al, gotOK := GreedyAllotments(costs, m, lambda)
		if gotOK {
			got, gotOK = b.pack(al, m, lambda)
		}
		if gotOK != wantOK || !sameSchedule(t, "greedy construction", got, want) {
			t.Logf("failing seed: %d", seed)
			return false
		}
		if gotOK {
			built++
		} else {
			refused++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 5}); err != nil {
		t.Fatal(err)
	}
	if built == 0 || refused == 0 {
		t.Fatalf("%d built, %d refused: both must occur", built, refused)
	}
	for seed := uint64(0); seed < 20; seed++ {
		jobs := randomInstance(seed, 50, 24)
		own, err := MRT(jobs, 24, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		costs := workload.Costs(jobs, 24)
		plugged, err := MRTWithAllotOf(costs, 24, lowerbound.CmaxDualOf(costs, 24), 0.01, SelectAllotments)
		if err != nil {
			t.Fatal(err)
		}
		if own.Lambda != plugged.Lambda || own.Iterations != plugged.Iterations ||
			!sameSchedule(t, "MRTWithAllotOf(SelectAllotments)", plugged.Schedule, own.Schedule) {
			t.Fatalf("seed %d: MRT and MRTWithAllotOf(SelectAllotments) disagree", seed)
		}
	}
}

// TestBuilderSteadyStateAllocs: after one warm call the workspace pays
// for nothing — a construction that fails, in the selection or in the
// packing, allocates nothing, and one that succeeds returns the
// Builder's own schedule over its buffer and allocates nothing either.
func TestBuilderSteadyStateAllocs(t *testing.T) {
	// At guess 20 on 100 processors: three wide jobs construct, the
	// fourth is selected and overflows the packing, the fifth is refused
	// by the selection (TestBuilderCorners checks exactly that).
	costs := workload.Costs(wideJobs(5), 100)
	var b Builder
	b.prepare(costs, 100, 20, 1)
	for n, want := range []string{4: "packing", 5: "selection"} {
		if want == "" {
			continue
		}
		if a := testing.AllocsPerRun(50, func() {
			if _, ok := b.construct(n); ok {
				t.Fatalf("prefix %d constructs", n)
			}
		}); a != 0 {
			t.Errorf("a construction that fails in the %s allocates %v times, want 0", want, a)
		}
	}
	if a := testing.AllocsPerRun(50, func() {
		if _, ok := b.construct(3); !ok {
			t.Fatal("prefix 3 does not construct")
		}
	}); a != 0 {
		t.Errorf("a successful construction allocates %v times, want 0", a)
	}
	// The batch step whole: prepare, two evictions, one success.
	if a := testing.AllocsPerRun(50, func() {
		if _, kept := b.LargestPrefixForDeadline(costs, 100, 20); kept != 3 {
			t.Fatalf("kept %d jobs, want 3", kept)
		}
	}); a != 0 {
		t.Errorf("a batch step with evictions allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { b.LargestPrefixForDeadline(costs, 100, 1) }); a != 0 {
		t.Errorf("a batch step that schedules nothing allocates %v times, want 0", a)
	}
}
