package core

import (
	"fmt"
	"testing"

	"repro/internal/lowerbound"
	"repro/internal/workload"
)

func TestRecommendTable(t *testing.T) {
	cases := []struct {
		p    Profile
		want string
	}{
		{Profile{Divisible: true}, "dlt"},
		{Profile{Criterion: BiCriteria, Moldable: true}, "bicriteria"},
		{Profile{Criterion: WeightedCompletion}, "smart"},
		{Profile{Moldable: true, Online: true}, "batch"},
		{Profile{Moldable: true}, "mrt"},
		{Profile{Online: true}, "conservative"},
		{Profile{}, "ffdh"},
	}
	for _, c := range cases {
		got := Recommend(c.p)
		if got.Policy != c.want {
			t.Errorf("Recommend(%+v) = %q, want %q", c.p, got.Policy, c.want)
		}
		if got.Guarantee == "" || got.Section == "" {
			t.Errorf("incomplete recommendation for %+v: %+v", c.p, got)
		}
	}
}

func TestRunAllPTPolicies(t *testing.T) {
	m := 16
	moldableJobs := workload.Parallel(workload.GenConfig{N: 30, M: m, Seed: 1, Weighted: true})
	onlineMoldable := workload.Parallel(workload.GenConfig{N: 30, M: m, Seed: 2, ArrivalRate: 0.2})
	rigidJobs := workload.Parallel(workload.GenConfig{N: 30, M: m, Seed: 3, RigidFraction: 1})
	onlineRigid := workload.Parallel(workload.GenConfig{N: 30, M: m, Seed: 4, RigidFraction: 1, ArrivalRate: 0.2})

	cases := []struct {
		name string
		p    Profile
		jobs []*workload.Job
	}{
		{"mrt", Profile{Moldable: true}, moldableJobs},
		{"batch", Profile{Moldable: true, Online: true}, onlineMoldable},
		{"smart", Profile{Criterion: WeightedCompletion}, rigidJobs},
		{"bicriteria", Profile{Criterion: BiCriteria, Moldable: true}, moldableJobs},
		{"ffdh", Profile{}, rigidJobs},
		{"conservative", Profile{Online: true}, onlineRigid},
	}
	for _, c := range cases {
		s, rec, err := Run(c.jobs, m, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s == nil || len(s.Allocs) != len(c.jobs) {
			t.Fatalf("%s (%s): incomplete schedule", c.name, rec.Policy)
		}
		if err := s.Covers(c.jobs); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

func TestRunRejectsDivisible(t *testing.T) {
	if _, _, err := Run(nil, 4, Profile{Divisible: true}); err == nil {
		t.Fatal("divisible profile accepted by Run")
	}
}

func TestRunPropagatesPolicyErrors(t *testing.T) {
	// A job wider than the platform makes every policy fail cleanly.
	j := &workload.Job{
		ID: 1, Kind: workload.Rigid, Weight: 1, DueDate: -1,
		SeqTime: 10, MinProcs: 64, MaxProcs: 64, Model: workload.Linear{},
	}
	for _, p := range []Profile{
		{Moldable: true}, {Criterion: WeightedCompletion}, {},
	} {
		if _, _, err := Run([]*workload.Job{j}, 4, p); err == nil {
			t.Fatalf("oversized job accepted by %+v", p)
		}
	}
}

// TestRunBiCriteriaWithinFourRho: the bi-criteria recommendation, run
// through Run, keeps both ratios to the certified lower bounds within
// the §4.4 guarantee 4ρ = 6.
func TestRunBiCriteriaWithinFourRho(t *testing.T) {
	const m = 32
	jobs := workload.Parallel(workload.GenConfig{N: 40, M: m, Seed: 1, Weighted: true})
	s, _, err := Run(jobs, m, Profile{Moldable: true, Criterion: BiCriteria})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Makespan <= 0 || rep.N != 40 {
		t.Fatalf("report: %+v", rep)
	}
	if r := rep.Makespan / lowerbound.Cmax(jobs, m); r > 6 {
		t.Fatalf("Cmax ratio %v above 4ρ", r)
	}
	if r := rep.SumWeightedCompletion / lowerbound.SumWeightedCompletion(jobs, m); r > 6 {
		t.Fatalf("ΣwC ratio %v above 4ρ", r)
	}
}

// ExampleRecommend demonstrates the paper's decision procedure.
func ExampleRecommend() {
	rec := Recommend(Profile{Moldable: true, Online: true})
	fmt.Println(rec.Policy, rec.Guarantee)
	// Output: batch 3 + ε
}
