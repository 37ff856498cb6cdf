package lowerbound

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/workload"
)

// tableJob is a moldable job with a freely drawn time table: plateaus,
// linear stretches, noise and rises, in small integers so that works and
// ratios tie. Such tables are rarely monotone, so Cost takes the scan
// path; MinProcs may exceed m.
func tableJob(rng *stats.RNG, id, m int) *workload.Job {
	maxP := rng.IntRange(1, m+2)
	times := make([]float64, maxP)
	base := float64(rng.IntRange(1, 20))
	for p := range times {
		switch rng.Intn(4) {
		case 0:
			times[p] = base
		case 1:
			times[p] = base / float64(p+1)
		case 2:
			times[p] = float64(rng.IntRange(1, 40))
		default:
			times[p] = 1.5 * base
		}
	}
	return &workload.Job{
		ID: id, Kind: workload.Moldable, Release: float64(rng.Intn(5)), Weight: float64(rng.Intn(4)),
		DueDate: -1, SeqTime: base, MinProcs: rng.IntRange(1, maxP), MaxProcs: maxP, Times: times,
	}
}

// cliffJob is slow but cheap on up to m-1 processors and fast only on
// all m at a higher work, so that n jobs with 2 < n < m fail the guess
// critical + area and the bound doubles its guess.
func cliffJob(rng *stats.RNG, id, m int) *workload.Job {
	w := float64(rng.IntRange(1, 30))
	times := make([]float64, m)
	for p := range times {
		times[p] = w
	}
	times[m-1] = w * rng.Range(1.2, 4) / float64(m)
	return &workload.Job{
		ID: id, Kind: workload.Moldable, Weight: 1, DueDate: -1,
		SeqTime: w, MinProcs: 1, MaxProcs: m, Times: times,
	}
}

// modelJob prices its allocations through its speedup model alone (no
// table: Cost's scan path over Model.Time). It fits m.
func modelJob(rng *stats.RNG, id, m int) *workload.Job {
	var model workload.SpeedupModel = workload.Linear{}
	switch rng.Intn(3) {
	case 0:
		model = workload.Amdahl{Alpha: rng.Range(0, 0.3)}
	case 1:
		model = workload.PowerLaw{Sigma: rng.Range(0.5, 1)}
	}
	maxP := rng.IntRange(1, m)
	return &workload.Job{
		ID: id, Kind: workload.Moldable, Release: float64(rng.Intn(5)), Weight: float64(rng.Intn(4)),
		DueDate: -1, SeqTime: float64(rng.IntRange(1, 50)), MinProcs: rng.IntRange(1, maxP), MaxProcs: maxP,
		Model: model,
	}
}

// boundFamilies draw the instances the bounds are compared on.
var boundFamilies = []struct {
	name string
	draw func(rng *stats.RNG) ([]*workload.Job, int)
}{
	{"parallel", func(rng *stats.RNG) ([]*workload.Job, int) {
		m := []int{1, 2, 3, 8, 32, 100}[rng.Intn(6)]
		return workload.Parallel(workload.GenConfig{
			N: rng.IntRange(1, 120), M: m, Seed: rng.Uint64(), Weighted: rng.Bool(0.5),
			ArrivalRate: float64(rng.Intn(2)) * 0.1,
		}), m
	}},
	{"sequential", func(rng *stats.RNG) ([]*workload.Job, int) {
		m := []int{1, 2, 5, 16, 64}[rng.Intn(5)]
		return workload.Sequential(workload.GenConfig{N: rng.IntRange(1, 120), M: m, Seed: rng.Uint64(), Weighted: rng.Bool(0.5)}), m
	}},
	{"tables", func(rng *stats.RNG) ([]*workload.Job, int) {
		m := rng.IntRange(1, 12)
		jobs := make([]*workload.Job, rng.IntRange(1, 25))
		for i := range jobs {
			jobs[i] = tableJob(rng, i%7, m) // IDs repeat
		}
		return jobs, m
	}},
	{"cliffs", func(rng *stats.RNG) ([]*workload.Job, int) {
		m := rng.IntRange(4, 16)
		jobs := make([]*workload.Job, rng.IntRange(3, m-1))
		for i := range jobs {
			if rng.Bool(0.2) {
				jobs[i] = tableJob(rng, i, m)
			} else {
				jobs[i] = cliffJob(rng, i, m)
			}
		}
		return jobs, m
	}},
	{"models", func(rng *stats.RNG) ([]*workload.Job, int) {
		m := rng.IntRange(1, 24)
		jobs := make([]*workload.Job, rng.IntRange(1, 40))
		for i := range jobs {
			jobs[i] = modelJob(rng, i, m)
		}
		return jobs, m
	}},
	{"unfit", func(rng *stats.RNG) ([]*workload.Job, int) {
		m := rng.IntRange(1, 8)
		jobs := make([]*workload.Job, rng.IntRange(1, 10))
		for i := range jobs {
			jobs[i] = modelJob(rng, i, m)
		}
		j := jobs[rng.Intn(len(jobs))]
		j.MinProcs, j.MaxProcs = m+1, m+rng.IntRange(1, 3)
		return jobs, m
	}},
	{"zero work", func(rng *stats.RNG) ([]*workload.Job, int) {
		m := rng.IntRange(1, 8)
		jobs := make([]*workload.Job, rng.IntRange(0, 4))
		for i := range jobs {
			jobs[i] = modelJob(rng, i, m)
			jobs[i].MinProcs, jobs[i].MaxProcs = m+1, m+1
		}
		return jobs, m
	}},
}

// sameBounds compares both bounds of one instance with the reference,
// bit for bit.
func sameBounds(t testing.TB, jobs []*workload.Job, m int) bool {
	t.Helper()
	costs := workload.Costs(jobs, m)
	if got, want := CmaxDualOf(costs, m), referenceCmaxDualOf(costs, m); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("CmaxDualOf = %v, reference %v (n=%d m=%d)", got, want, len(jobs), m)
		return false
	}
	if got, want := SumWeightedCompletionOf(costs, m), referenceSumWeightedCompletionOf(costs, m); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("SumWeightedCompletionOf = %v, reference %v (n=%d m=%d)", got, want, len(jobs), m)
		return false
	}
	return true
}

// dualPath names the way the reference bisection ends on an instance.
func dualPath(costs []workload.Cost, m int) string {
	var work, critical float64
	for i := range costs {
		w, _ := costs[i].MinWork()
		work += w
		if t, _ := costs[i].MinTime(); !math.IsInf(t, 0) && t > critical {
			critical = t
		}
	}
	area := work / float64(m)
	lo := math.Max(area, critical)
	switch {
	case lo == 0:
		return "zero"
	case dualFeasible(costs, m, lo):
		return "lo feasible"
	case dualFeasible(costs, m, critical+area):
		return "bisected"
	}
	for hi := 2 * (critical + area); !math.IsInf(hi, 0); hi *= 2 {
		if dualFeasible(costs, m, hi) {
			return "doubled, then bisected"
		}
	}
	return "doubled to +Inf"
}

// TestBoundsMatchReference: CmaxDualOf's bracketed bisection and
// SumWeightedCompletionOf's pdqsort call against the forms kept in
// reference_test.go, bit for bit, over generated, hand-drawn
// non-monotone, Model-only, unfit and zero-work instances. `-quickchecks
// N` scales the budget (10 instances per check and family).
func TestBoundsMatchReference(t *testing.T) {
	for _, fam := range boundFamilies {
		t.Run(fam.name, func(t *testing.T) {
			f := func(seed uint64) bool {
				jobs, m := fam.draw(stats.NewRNG(seed))
				if !sameBounds(t, jobs, m) {
					t.Logf("failing seed: %d", seed)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCountScale: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBoundsPathsCovered: the families above reach every way the dual
// bound can end, both ends of the doubling loop included.
func TestBoundsPathsCovered(t *testing.T) {
	paths := map[string]int{}
	for _, fam := range boundFamilies {
		for seed := uint64(1); seed <= 200; seed++ {
			jobs, m := fam.draw(stats.NewRNG(seed))
			paths[dualPath(workload.Costs(jobs, m), m)]++
		}
	}
	t.Logf("dual paths over %d instances: %v", 200*len(boundFamilies), paths)
	for _, p := range []string{"zero", "lo feasible", "bisected", "doubled, then bisected", "doubled to +Inf"} {
		if paths[p] == 0 {
			t.Errorf("no instance takes the %q path: %v", p, paths)
		}
	}
}

// FuzzCmaxDual builds a small instance from bytes — table and Model-only
// jobs, any width, ties everywhere — and compares both bounds with the
// reference bit for bit.
func FuzzCmaxDual(f *testing.F) {
	f.Add([]byte{3, 2, 1, 2, 10, 10, 0, 1, 1, 5})
	f.Add([]byte{5, 8, 1, 8, 10, 10, 10, 10, 10, 10, 10, 3, 1, 8, 10, 10, 10, 10, 10, 10, 10, 3})
	f.Add([]byte{2, 1, 0, 3, 7, 200, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m := next()%16 + 1
		jobs := make([]*workload.Job, next()%12)
		for i := range jobs {
			head := next()
			maxP := next()%(m+2) + 1
			j := &workload.Job{
				ID: head % 5, Kind: workload.Moldable, Weight: float64(head / 5 % 4), Release: float64(head / 20 % 3),
				DueDate: -1, SeqTime: float64(next()%50 + 1), MinProcs: next()%maxP + 1, MaxProcs: maxP,
			}
			if head%2 == 0 {
				j.Model = workload.Amdahl{Alpha: float64(head%10) / 20}
			} else {
				j.Times = make([]float64, maxP)
				for p := range j.Times {
					j.Times[p] = float64(next()%64+1) / 4
				}
			}
			jobs[i] = j
		}
		sameBounds(t, jobs, m)
	})
}
