package repro

import (
	"fmt"
	"testing"
)

// The facade must expose a coherent, working surface: these tests drive
// the whole stack through the public aliases only.

func TestFacadeRecommendAndRun(t *testing.T) {
	const m = 32
	jobs := ParallelJobs(GenConfig{N: 40, M: m, Seed: 1, Weighted: true})
	p := Profile{Moldable: true, Criterion: BiCriteria}
	rec := Recommend(p)
	if rec.Policy != "bicriteria-doubling" {
		t.Fatalf("recommendation drifted: %+v", rec)
	}
	s, _, err := Run(jobs, m, p)
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Makespan <= 0 || rep.N != 40 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.Makespan/CmaxLowerBound(jobs, m) > 6 {
		t.Fatal("4ρ bound violated through the facade")
	}
	if rep.SumWeightedCompletion/WeightedCompletionLowerBound(jobs, m) > 6 {
		t.Fatal("ΣwC bound violated through the facade")
	}
}

func TestFacadePlatforms(t *testing.T) {
	if g := CIMENT(); g.TotalProcs() != 432 || len(g.Clusters) != 4 {
		t.Fatal("CIMENT drifted from Figure 3")
	}
}

func TestFacadeDLT(t *testing.T) {
	star := &Star{Workers: []Worker{{Compute: 1, Link: 0.1}, {Compute: 2, Link: 0.1}}}
	d, err := SingleRound(star, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Makespan <= 0 {
		t.Fatal("degenerate DLT result")
	}
	if SteadyStateThroughput(star) <= 0 {
		t.Fatal("degenerate throughput")
	}
	if _, err := MultiRound(star, 100, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := SelfSchedule(star, 100, 5); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeWorkloads(t *testing.T) {
	if len(ParallelJobs(GenConfig{N: 5, M: 8, Seed: 1})) != 5 {
		t.Fatal("ParallelJobs broken")
	}
	if len(CommunityJobs(CIMENTCommunities(), 5, 16, 0, 1)) != 5 {
		t.Fatal("CommunityJobs broken")
	}
}

func TestFacadePolicies(t *testing.T) {
	if EASY.Name() != "easy" {
		t.Fatalf("EASY is named %q", EASY.Name())
	}
}

// ExampleRecommend demonstrates the paper's decision procedure.
func ExampleRecommend() {
	rec := Recommend(Profile{Moldable: true, Online: true})
	fmt.Println(rec.Policy, rec.Guarantee)
	// Output: batch-mrt 3 + ε
}

// ExampleFig2Series shows how to regenerate one point of Figure 2.
func ExampleFig2Series() {
	pts, err := Fig2Series(Fig2Config{
		M: 16, Ns: []int{10}, Seed: 1, Reps: 1, Parallel: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(len(pts), pts[0].N)
	// Output: 1 10
}
