package metrics

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

// reportsIdentical compares two reports field by field with ==: the
// accumulator contract is bit-for-bit equality, not epsilon closeness.
func reportsIdentical(a, b Report) bool { return a == b }

// accumulate folds a slice through an Accumulator.
func accumulate(cs []Completion, m int) Report {
	acc := NewAccumulator(m)
	for _, c := range cs {
		acc.Add(c)
	}
	if acc.N() != len(cs) {
		panic("accumulator miscounted")
	}
	return acc.Report()
}

// TestAccumulatorMatchesNewReportRandom is the property test of the
// criteria: across randomized workloads (moldable and rigid, weighted,
// due dates, out-of-order completion streams) the one-pass report, and
// NewReport's fold of the slice, equal the per-criterion loops of
// referenceReport bit for bit, on the platform width and on none.
func TestAccumulatorMatchesNewReportRandom(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 200; trial++ {
		m := rng.IntRange(1, 96)
		n := rng.Intn(120)
		cfg := workload.GenConfig{
			N: n + 1, M: m, Seed: uint64(trial),
			ArrivalRate:   rng.Range(0, 2),
			Weighted:      rng.Bool(0.5),
			RigidFraction: rng.Range(0, 1),
		}
		if rng.Bool(0.3) {
			cfg.DueDateSlack = rng.Range(1, 4)
		}
		jobs := workload.Parallel(cfg)
		cs := make([]Completion, 0, len(jobs))
		for _, j := range jobs {
			procs := j.MinProcs
			start := j.Release + rng.Range(0, 50)
			// A slice of the stream completes instantly (zero duration)
			// and some jobs "complete" before others released — the
			// accumulator must not care about stream order.
			end := start
			if rng.Bool(0.9) {
				end = start + j.TimeOn(procs)
			}
			cs = append(cs, Completion{Job: j, Start: start, End: end, Procs: procs})
		}
		for i := len(cs) - 1; i > 0; i-- {
			k := rng.Intn(i + 1)
			cs[i], cs[k] = cs[k], cs[i]
		}
		for _, width := range []int{m, 0} {
			want := referenceReport(cs, width)
			for name, got := range map[string]Report{"accumulator": accumulate(cs, width), "NewReport": NewReport(cs, width)} {
				if !reportsIdentical(want, got) {
					t.Fatalf("trial %d (n=%d m=%d): %s diverged\nwant %+v\ngot  %+v",
						trial, len(cs), width, name, want, got)
				}
			}
		}
		if r := NewReport(cs, 0); r.MeanStretch != 0 || r.MaxStretch != 0 || r.Utilization != 0 {
			t.Fatalf("trial %d: no platform width, yet stretch %v / %v and utilization %v",
				trial, r.MeanStretch, r.MaxStretch, r.Utilization)
		}
	}
}

// TestAccumulatorEdgeCases holds the accumulator to the reference on the
// edge cases metrics/edge_test.go pins: empty stream, zero-duration
// stretch suppression, DueDate=-1 never late, zero-makespan utilization.
func TestAccumulatorEdgeCases(t *testing.T) {
	// Empty: all zeros, no NaN.
	if rep := NewAccumulator(8).Report(); !reportsIdentical(rep, referenceReport(nil, 8)) {
		t.Fatalf("empty accumulator report = %+v", rep)
	}

	zero := &workload.Job{
		ID: 1, Kind: workload.Rigid, Release: 0, Weight: 1, DueDate: -1,
		SeqTime: 0, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
	}
	late := edgeJob(2, 0, 4, 2, 1) // due at 1, ends later
	noDue := edgeJob(3, 2, 3, 1, -1)
	cs := []Completion{
		{Job: zero, Start: 5, End: 5, Procs: 1}, // zero-duration, zero min-time
		{Job: late, Start: 0, End: 2, Procs: 2},
		{Job: noDue, Start: 2, End: 5, Procs: 1},
	}
	want := referenceReport(cs, 4)
	got := accumulate(cs, 4)
	if !reportsIdentical(want, got) {
		t.Fatalf("edge stream diverged\nwant %+v\ngot  %+v", want, got)
	}
	if got.LateCount != 1 {
		t.Fatalf("LateCount = %d, want 1 (DueDate=-1 must never be late)", got.LateCount)
	}
	if got.MaxStretch == 0 || got.MeanStretch == 0 {
		t.Fatalf("stretch vanished entirely: %+v", got)
	}

	// All-zero-duration stream at t=0: utilization denominator is 0.
	zcs := []Completion{{Job: zero, Start: 0, End: 0, Procs: 1}}
	if w, g := referenceReport(zcs, 4), accumulate(zcs, 4); !reportsIdentical(w, g) {
		t.Fatalf("zero-makespan stream diverged\nwant %+v\ngot  %+v", w, g)
	}
}

func TestRetentionStores(t *testing.T) {
	job := edgeJob(1, 0, 1, 1, -1)
	mk := func(i int) Completion {
		return Completion{Job: job, Start: float64(i), End: float64(i + 1), Procs: 1}
	}

	full := NewFullRetention()
	ring := NewRing(3)
	disc := NewDiscard()
	for i := 0; i < 5; i++ {
		c := mk(i)
		full.Add(c)
		ring.Add(c)
		disc.Add(c)
	}
	if full.Len() != 5 || len(full.Completions()) != 5 {
		t.Fatalf("full retention lost records: %d", full.Len())
	}
	got := ring.Completions()
	if ring.Len() != 3 || len(got) != 3 || got[0].Start != 2 || got[2].Start != 4 {
		t.Fatalf("ring tail wrong: %+v", got)
	}
	if disc.Len() != 0 || disc.Completions() != nil {
		t.Fatal("discard retained something")
	}
}
