package sched_test

import (
	"math"
	"testing"

	"repro/internal/bicriteria"
	"repro/internal/moldable"
	"repro/internal/sched"
	"repro/internal/workload"
)

// TestSumWeightedCompletionMatchesReport: the direct ΣwC sum equals the
// full report's bit for bit, on MRT and doubling schedules of Zipf-weighted
// instances with and without zero weights, and on the empty schedule.
func TestSumWeightedCompletionMatchesReport(t *testing.T) {
	check := func(name string, s *sched.Schedule) {
		t.Helper()
		got, want := s.SumWeightedCompletion(), s.Report().SumWeightedCompletion
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: SumWeightedCompletion() = %v (%#x), Report() has %v (%#x)",
				name, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check("empty", sched.New(8))
	for seed := uint64(1); seed <= 6; seed++ {
		for _, parallel := range []bool{false, true} {
			for _, zeros := range []bool{false, true} {
				const m = 32
				cfg := workload.GenConfig{N: 120, M: m, Seed: seed, Weighted: true}
				jobs := workload.Sequential(cfg)
				if parallel {
					jobs = workload.Parallel(cfg)
				}
				if zeros {
					for i, j := range jobs {
						if i%3 == 0 {
							j.Weight = 0
						}
					}
				}
				mrt, err := moldable.MRT(jobs, m, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				check("mrt", mrt.Schedule)
				bi, err := bicriteria.Schedule(jobs, m, bicriteria.Options{})
				if err != nil {
					t.Fatal(err)
				}
				check("bicriteria", bi.Schedule)
			}
		}
	}
}
