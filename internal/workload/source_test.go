package workload

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// sameJob compares a generated job with the reference generator's, on
// everything a reader can observe: every scalar field bit for bit, the
// model, and the time table over the legal range. The two tables differ
// in shape by design — the reference prices [1, maxP] for every job, the
// sources only what TimeOn can reach — so the test pins the new shape
// too: a table of exactly MaxProcs-MinProcs+1 entries, Times[p-MinProcs]
// the time on p, that cannot be grown in place.
func sameJob(want, got *Job) error {
	switch {
	case got.ID != want.ID, got.Name != want.Name, got.Class != want.Class, got.Kind != want.Kind,
		got.MinProcs != want.MinProcs, got.MaxProcs != want.MaxProcs, got.Model != want.Model,
		!sameFloat(got.Release, want.Release), !sameFloat(got.Weight, want.Weight),
		!sameFloat(got.DueDate, want.DueDate), !sameFloat(got.SeqTime, want.SeqTime):
		return fmt.Errorf("fields differ:\nwant %+v\ngot  %+v", want, got)
	case (got.Times == nil) != (want.Times == nil):
		return fmt.Errorf("table presence differs: want %v, got %v", want.Times, got.Times)
	}
	if got.Times == nil {
		return nil
	}
	if width := got.MaxProcs - got.MinProcs + 1; len(got.Times) != width || cap(got.Times) != width {
		return fmt.Errorf("table of length %d, capacity %d for [%d, %d]",
			len(got.Times), cap(got.Times), got.MinProcs, got.MaxProcs)
	}
	for p := got.MinProcs; p <= got.MaxProcs; p++ {
		if w, g := want.TimeOn(p), got.TimeOn(p); !sameFloat(g, w) {
			return fmt.Errorf("time on %d procs: want %v, got %v", p, w, g)
		}
	}
	return got.Validate()
}

func sameJobs(label string, want, got []*Job) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d vs %d jobs", label, len(want), len(got))
	}
	for i := range want {
		if err := sameJob(want[i], got[i]); err != nil {
			return fmt.Errorf("%s: job %d: %v", label, i, err)
		}
	}
	return nil
}

// diffConfig draws a generator configuration meant to reach every branch
// of the three sources: 2–40 jobs (now and then 300; never one, since a
// desynchronised RNG shows in the next job's draws), 1–256 processors,
// defaults or explicit lognormal parameters, off-line or with arrivals,
// weighted or not, no rigid job, some, half or all, a MaxProcs cap, due
// dates with a slack on either side of 1.
func diffConfig(rng *stats.RNG) GenConfig {
	cfg := GenConfig{
		N: rng.IntRange(2, 40), M: rng.IntRange(1, 256), Seed: rng.Uint64(),
		Weighted:      rng.Bool(0.5),
		RigidFraction: []float64{0, 0.3, 0.5, 1}[rng.Intn(4)],
	}
	if rng.Bool(0.05) {
		cfg.N = 300
	}
	if rng.Bool(0.5) {
		cfg.SeqMu, cfg.SeqSigma = rng.Range(0.5, 9), rng.Range(0.1, 2)
	}
	if rng.Bool(0.5) {
		cfg.ArrivalRate = rng.Range(0.01, 5)
	}
	if rng.Bool(0.3) {
		cfg.MaxProcsCap = rng.IntRange(1, cfg.M)
	}
	if rng.Bool(0.5) {
		cfg.DueDateSlack = rng.Range(0.5, 5)
	}
	return cfg
}

// diffMix draws a community mix: CIMENT's, or one to four made-up
// communities whose names run from one byte to past 32 bytes.
func diffMix(rng *stats.RNG) []Community {
	if rng.Bool(0.5) {
		return CIMENTCommunities()
	}
	mix := make([]Community, rng.IntRange(1, 4))
	for i := range mix {
		lo := rng.IntRange(1, 64)
		mix[i] = Community{
			Name:  strings.Repeat("c", rng.IntRange(1, 48)) + strconv.Itoa(i),
			Share: rng.Range(0.1, 1), SeqMu: rng.Range(1, 10), SeqSigma: rng.Range(0.2, 1.5),
			MaxProcsLo: lo, MaxProcsHi: rng.IntRange(lo, 128),
			RigidProb: []float64{0, 0.3, 0.5, 1}[rng.Intn(4)], Weight: float64(rng.IntRange(1, 5)),
		}
	}
	return mix
}

// TestSourcesMatchGenerators pins the contract the goldens depend on:
// the streaming sources draw the exact same RNG sequence, and price
// every legal allocation to the same bits, as the generators they
// replaced, kept in reference_test.go. `-quickchecks N` scales the
// budget (20 configurations per check, four streams each; CI runs it
// long).
func TestSourcesMatchGenerators(t *testing.T) {
	var jobs, rigid, due int
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		cfg := diffConfig(rng)
		mix, m, rate := diffMix(rng), rng.IntRange(1, 64), []float64{0, rng.Range(0.01, 5)}[rng.Intn(2)]
		par := Parallel(cfg)
		err := cmp.Or(
			sameJobs("sequential", referenceSequential(cfg), Sequential(cfg)),
			sameJobs("parallel", referenceParallel(cfg), par),
			sameJobs("mixed", referenceMixed(cfg), Mixed(cfg)),
			sameJobs("communities", referenceCommunities(mix, cfg.N, m, rate, cfg.Seed), Communities(mix, cfg.N, m, rate, cfg.Seed)),
		)
		if err != nil {
			t.Logf("failing seed %d (%+v, m=%d rate=%v): %v", seed, cfg, m, rate, err)
			return false
		}
		for _, j := range par {
			jobs++
			if j.Kind == Rigid {
				rigid++
			}
			if j.DueDate >= 0 {
				due++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 20}); err != nil {
		t.Fatal(err)
	}
	if rigid == 0 || rigid == jobs || due == 0 || due == jobs {
		t.Fatalf("paths not all exercised: %d jobs, %d rigid, %d with a due date", jobs, rigid, due)
	}
	t.Logf("%d parallel jobs compared, %d rigid, %d with a due date", jobs, rigid, due)
}

// generatorModel draws a speedup model the sources can give a job:
// randomModel's two families over their ranges, the communities'
// constant, and the sequential source's Linear.
func generatorModel(rng *stats.RNG) SpeedupModel {
	switch rng.Intn(4) {
	case 0:
		return communityModel
	case 1:
		return Linear{}
	default:
		return randomModel(rng)
	}
}

// TestGeneratorModelsNeverClamp is why a job frozen at p can be priced
// with Model.Time(seq, p) alone: over the models the sources draw, the
// running minimum MakeTable takes never changes an entry, up to 4 096
// processors. (Amdahl's expression rounds monotonically; consecutive
// p^σ differ by far more than math.Pow's error.)
func TestGeneratorModelsNeverClamp(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		model, seq := generatorModel(rng), rng.LogNormal(rng.Range(0.5, 11), rng.Range(0.1, 2))
		for p, clamped := range MakeTable(model, seq, 4096) {
			if raw := model.Time(seq, p+1); !sameFloat(clamped, raw) {
				t.Logf("seed %d: %s, seq %v: table[%d] = %v, Time = %v", seed, model.Name(), seq, p, clamped, raw)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestPowerLawTableExact: every entry powerLawTable prices with one
// math.Exp is math.Pow's, bit for bit, for every p it covers and σ at
// both ends of its domain and over 2 000 draws from the generators'
// [0.6, 1).
func TestPowerLawTableExact(t *testing.T) {
	rng := stats.NewRNG(34)
	sigmas := []float64{math.Nextafter(0.5, 1), math.Nextafter(1, 0)}
	for range 2000 {
		sigmas = append(sigmas, rng.Range(0.6, 1))
	}
	table := make([]float64, len(logP)-1)
	for _, s := range sigmas {
		m, seq := PowerLaw{Sigma: s}, rng.LogNormal(5, 2)
		powerLawTable(table, m, seq)
		for i, got := range table {
			if want := m.Time(seq, i+1); !sameFloat(got, want) {
				t.Fatalf("σ %v, seq %v: table[%d] = %v, math.Pow gives %v", s, seq, i, got, want)
			}
		}
	}
}

// FuzzPowerLawTable: MakeTable's power-law tables against the interface
// loop over math.Pow, bit for bit, for any σ and sequential time and for
// widths past the one-Exp range.
func FuzzPowerLawTable(f *testing.F) {
	for _, s := range []float64{0.5, math.Nextafter(0.5, 1), 0.8, math.Nextafter(1, 0), 1, -0.3, 1.2, math.NaN()} {
		f.Add(s, 3600.0, uint16(100))
	}
	f.Add(0.7, 1.0, uint16(len(logP)+3))
	f.Fuzz(func(t *testing.T, sigma, seq float64, n uint16) {
		model, width := PowerLaw{Sigma: sigma}, int(n)%(2*len(logP))
		want, got := referenceMakeTable(model, seq, width), MakeTable(model, seq, width)
		for p := range want {
			if !sameFloat(got[p], want[p]) {
				t.Fatalf("σ %v, seq %v: table[%d] = %v, interface loop %v", sigma, seq, p, got[p], want[p])
			}
		}
	})
}

// TestMakeTableTypedMatchesGeneric: MakeTable's typed loops against the
// single interface loop it used to be, bit for bit — over the typed
// models with parameters on both sides of monotone (so the clamp works),
// power-law σ on and next to the ends of the one-Exp domain, widths on
// both sides of its end, models that take the generic loop, and
// sequential times no generator draws.
func TestMakeTableTypedMatchesGeneric(t *testing.T) {
	odd := []float64{0, -1, 1, 2, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	param := func(rng *stats.RNG, lo, hi float64) float64 {
		if rng.Bool(0.15) {
			return odd[rng.Intn(len(odd))]
		}
		return rng.Range(lo, hi)
	}
	sigmaEdges := []float64{0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), 1, math.Nextafter(1, 0), math.Nextafter(1, 2)}
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		var model SpeedupModel
		switch rng.Intn(9) {
		case 0, 1:
			model = Amdahl{Alpha: param(rng, -0.5, 1.5)}
		case 2, 3:
			model = PowerLaw{Sigma: param(rng, -0.5, 1.5)}
			if rng.Bool(0.2) {
				model = PowerLaw{Sigma: sigmaEdges[rng.Intn(len(sigmaEdges))]}
			}
		case 4:
			model = Linear{}
		case 5, 6, 7:
			model = commPenalty{overhead: param(rng, 0, 2)}
		default:
			model = &Amdahl{Alpha: param(rng, 0, 1)} // pointer: not the typed case
		}
		seq, n := param(rng, 0.001, 1e6), rng.IntRange(0, 200)
		if rng.Bool(0.05) {
			n = rng.IntRange(len(logP)-8, len(logP)+100)
		}
		want, got := referenceMakeTable(model, seq, n), MakeTable(model, seq, n)
		if len(got) != len(want) {
			t.Logf("seed %d: %s: length %d, want %d", seed, model.Name(), len(got), len(want))
			return false
		}
		for p := range want {
			if !sameFloat(got[p], want[p]) {
				t.Logf("seed %d: %s, seq %v: table[%d] = %v, generic loop %v", seed, model.Name(), seq, p, got[p], want[p])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratorAllocBudget: a generated job is built in place, so its
// Job, name and table cost three allocations per slab of 64 jobs, which
// AllocsPerRun's whole-number average rounds to 0; a Parallel/Mixed job
// also costs the box of the model it drew (the communities share one
// model, a sequential job has no table). Each row also bounds the bytes
// per job in plain builds: the value measured when it was set plus about
// 10 %.
func TestGeneratorAllocBudget(t *testing.T) {
	const n = 4000
	for _, tc := range []struct {
		name          string
		src           Source
		allocs, bytes float64
	}{
		{"sequential", SequentialSource(GenConfig{N: 2 * n, Seed: 1, Weighted: true, DueDateSlack: 3}), 0, 160},
		{"parallel", ParallelSource(GenConfig{N: 2 * n, M: 100, Seed: 1, Weighted: true, DueDateSlack: 3}), 1, 615},
		{"mixed", MixedSource(GenConfig{N: 2 * n, M: 64, Seed: 1, ArrivalRate: 2, RigidFraction: 0.5}), 1, 316},
		{"communities", CommunitiesSource(CIMENTCommunities(), 2*n, 64, 0.1, 1), 0, 231},
	} {
		allocs := testing.AllocsPerRun(n-1, func() { tc.src.Next() })
		bytes := bytesPerJob(tc.src, n)
		t.Logf("%-11s %.0f allocations and %.1f bytes per job", tc.name, allocs, bytes)
		// The race detector allocates on its own account; byte budgets
		// are for plain builds.
		if allocs > tc.allocs || bytes > tc.bytes && !raceEnabled {
			t.Errorf("%s: %.0f allocations and %.1f bytes per job, budget %v and %v", tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
}

// bytesPerJob is the mean number of bytes the next n jobs of src
// allocate, on one P so that no other goroutine runs in between.
func bytesPerJob(src Source, n int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		src.Next()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// generatedStreams builds the four generators' streams for one drawn
// configuration: diffConfig's, and diffMix's communities.
func generatedStreams(rng *stats.RNG) map[string][]*Job {
	cfg := diffConfig(rng)
	mix, m, rate := diffMix(rng), rng.IntRange(1, 64), []float64{0, rng.Range(0.01, 5)}[rng.Intn(2)]
	return map[string][]*Job{
		"sequential":  Sequential(cfg),
		"parallel":    Parallel(cfg),
		"mixed":       Mixed(cfg),
		"communities": Communities(mix, cfg.N, m, rate, cfg.Seed),
	}
}

// tableContract checks one generated job against the table contract:
// it validates, and over [MinProcs, MaxProcs] TimeOn(p) is the model's
// time on p bit for bit — through MakeTable's clamp for a moldable job,
// Model.Time itself for a job frozen rigid.
func tableContract(j *Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	var clamped []float64
	if j.Kind == Moldable {
		clamped = MakeTable(j.Model, j.SeqTime, j.MaxProcs)
	}
	for p := j.MinProcs; p <= j.MaxProcs; p++ {
		want := j.Model.Time(j.SeqTime, p)
		if clamped != nil {
			want = clamped[p-1]
		}
		if got := j.TimeOn(p); !sameFloat(got, want) {
			return fmt.Errorf("%s job %d: TimeOn(%d) = %v, model %v", j.Kind, j.ID, p, got, want)
		}
	}
	return nil
}

// TestGeneratedTableContract holds every job of every generator to the
// table contract (tableContract). `-quickchecks N` scales the
// budget (10 configurations per check, four streams each; CI runs it
// long).
func TestGeneratedTableContract(t *testing.T) {
	kinds := map[Kind]int{}
	f := func(seed uint64) bool {
		for name, jobs := range generatedStreams(stats.NewRNG(seed)) {
			for _, j := range jobs {
				if err := tableContract(j); err != nil {
					t.Logf("seed %d, %s: %v", seed, name, err)
					return false
				}
				if j.Times != nil {
					kinds[j.Kind]++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 10}); err != nil {
		t.Fatal(err)
	}
	if kinds[Rigid] == 0 || kinds[Moldable] == 0 {
		t.Fatalf("tables not all exercised: %v", kinds)
	}
}

// TestStreamSlabsDoNotAlias: a job a source has handed out is never
// written again — not while the rest of its slab is built, and not by
// the slabs after it, whose tables may start in what its arena has left.
func TestStreamSlabsDoNotAlias(t *testing.T) {
	const kept = 2 * genSlab // past the first slab, however many its size class holds
	for name, src := range map[string]Source{
		"sequential":  SequentialSource(GenConfig{N: 6 * genSlab, Seed: 5, DueDateSlack: 2}),
		"parallel":    ParallelSource(GenConfig{N: 6 * genSlab, M: 48, Seed: 5, DueDateSlack: 2}),
		"mixed":       MixedSource(GenConfig{N: 6 * genSlab, M: 48, Seed: 5, RigidFraction: 0.5}),
		"communities": CommunitiesSource(CIMENTCommunities(), 6*genSlab, 64, 1, 5),
	} {
		var jobs []*Job
		var copies []Job
		for i := 0; ; i++ {
			j, ok := src.Next()
			if !ok {
				break
			}
			if i < kept {
				c := *j
				c.Times = slices.Clone(j.Times)
				jobs, copies = append(jobs, j), append(copies, c)
			}
		}
		if len(jobs) != kept {
			t.Fatalf("%s: %d jobs", name, len(jobs))
		}
		for k, j := range jobs {
			if !reflect.DeepEqual(*j, copies[k]) {
				t.Fatalf("%s: job %d changed after it was handed out:\nthen %+v\nnow  %+v", name, k, copies[k], *j)
			}
		}
	}
}

func benchSource(b *testing.B, newSource func(n int) Source) {
	const n = 2000
	b.ReportAllocs()
	for b.Loop() {
		src := newSource(n)
		for {
			if _, ok := src.Next(); !ok {
				break
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/job")
}

// BenchmarkMixedSource is deep_queue's stream.
func BenchmarkMixedSource(b *testing.B) {
	benchSource(b, func(n int) Source {
		return MixedSource(GenConfig{N: n, M: 64, Seed: 1, ArrivalRate: 2, RigidFraction: 0.5})
	})
}

// BenchmarkParallelSourceWeighted is fig2's parallel series.
func BenchmarkParallelSourceWeighted(b *testing.B) {
	benchSource(b, func(n int) Source {
		return ParallelSource(GenConfig{N: n, M: 100, Seed: 1, Weighted: true})
	})
}

func BenchmarkCommunitiesSource(b *testing.B) {
	benchSource(b, func(n int) Source {
		return CommunitiesSource(CIMENTCommunities(), n, 64, 0.1, 1)
	})
}

// TestSourceReleaseOrder pins the lazy-admission prerequisite: every
// generator emits jobs in non-decreasing release order.
func TestSourceReleaseOrder(t *testing.T) {
	srcs := map[string]Source{
		"sequential":  SequentialSource(GenConfig{N: 500, Seed: 3, ArrivalRate: 0.5}),
		"parallel":    ParallelSource(GenConfig{N: 500, Seed: 3, ArrivalRate: 5}),
		"communities": CommunitiesSource(CIMENTCommunities(), 500, 64, 1, 3),
	}
	for name, src := range srcs {
		last := 0.0
		for {
			j, ok := src.Next()
			if !ok {
				break
			}
			if j.Release < last {
				t.Fatalf("%s: release went backwards: %v after %v", name, j.Release, last)
			}
			last = j.Release
		}
	}
}
