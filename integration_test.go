package repro

// End-to-end integration tests: full pipelines through the internal
// packages and the experiments drivers, plus determinism goldens (same seed ⇒
// bit-identical outputs) so refactors cannot silently change results.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bicriteria"
	"repro/internal/cluster"
	"repro/internal/core"
	_ "repro/internal/experiments" // registers the scenario kinds and built-in catalog
	"repro/internal/grid"
	"repro/internal/lowerbound"
	"repro/internal/platform"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// catalogTable runs built-in scenario id at the given seed and scale
// through scenario.Lookup + scenario.Run — the path the goldens pin.
func catalogTable(id string, seed uint64, sc scenario.Scale) (*trace.Table, error) {
	spec, ok := scenario.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("no built-in scenario %q", id)
	}
	res, err := scenario.Run(spec, scenario.RunOptions{Seed: seed, SeedExplicit: true, Scale: sc})
	if err != nil {
		return nil, err
	}
	return res.Table, nil
}

func TestDeterminismAcrossRuns(t *testing.T) {
	render := func() string {
		tb, err := catalogTable("mrt", 42, scenario.Scale{JobFactor: 20})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := tb.Write(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same seed produced different tables:\n%s\n---\n%s", a, b)
	}
}

func TestDeterminismFig2(t *testing.T) {
	cfg := bicriteria.Fig2Config{M: 32, Ns: []int{20}, Seed: 9, Reps: 2, Parallel: true}
	a, err := bicriteria.Fig2Series(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bicriteria.Fig2Series(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].CmaxRatio != b[0].CmaxRatio || a[0].WCRatio != b[0].WCRatio {
		t.Fatalf("Fig2 not deterministic: %+v vs %+v", a[0], b[0])
	}
}

func TestEveryExperimentRunsAtTestScale(t *testing.T) {
	for _, id := range []string{
		"mrt", "batch", "smart", "bicriteria", "dlt", "cigri", "decentralized",
		"mixed", "reservations", "malleable", "treedlt", "criteria", "heterogrid",
	} {
		tb, err := catalogTable(id, 1, scenario.Scale{JobFactor: 20})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var sb strings.Builder
		if err := tb.Write(&sb); err != nil {
			t.Fatalf("%s: render: %v", id, err)
		}
		if !strings.Contains(sb.String(), tb.Headers[0]) {
			t.Fatalf("%s: header missing from render", id)
		}
	}
}

func TestFullPipelineCIMENTGrid(t *testing.T) {
	// CiGri run: CIMENT platform, community jobs, one bag.
	g := platform.CIMENT()
	var members []grid.Member
	id := 0
	seed := uint64(3)
	for _, cl := range g.Clusters {
		jobs := workload.Communities(workload.CIMENTCommunities(), 8, cl.Procs(), 0.005, seed)
		seed++
		for _, j := range jobs {
			j.ID = id
			id++
		}
		members = append(members, grid.Member{Cluster: cl, Policy: cluster.EASYPolicy{}, Local: jobs})
	}
	bags := []*workload.Bag{{ID: 0, Runs: 300, RunTime: 45}}
	ciGri, err := grid.NewRouted(members, nil, bags, grid.NewCentralizedRouter(grid.RouterOptions{}),
		grid.RoutedOptions{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ciGri.FeedOnIdle()
	if err := ciGri.Run(); err != nil {
		t.Fatal(err)
	}
	if ciGri.Stats().TasksCompleted != 300 {
		t.Fatalf("grid completed %d of 300", ciGri.Stats().TasksCompleted)
	}
	if total := len(ciGri.AllCompletions()); total != id {
		t.Fatalf("local completions %d of %d", total, id)
	}
}

func TestRecommendationsAreConsistentWithRun(t *testing.T) {
	// Every non-divisible profile must execute through Run and yield a
	// schedule whose criteria beat a naive 10x-of-bound sanity envelope.
	const m = 16
	for _, p := range []core.Profile{
		{Moldable: true},
		{Moldable: true, Online: true},
		{Criterion: core.WeightedCompletion},
		{Criterion: core.BiCriteria, Moldable: true},
		{},
		{Online: true},
	} {
		cfg := workload.GenConfig{N: 30, M: m, Seed: 5, Weighted: true}
		if p.Online {
			cfg.ArrivalRate = 0.2
		}
		if !p.Moldable {
			cfg.RigidFraction = 1
		}
		jobs := workload.Parallel(cfg)
		s, rec, err := core.Run(jobs, m, p)
		if err != nil {
			t.Fatalf("%+v (%s): %v", p, rec.Policy, err)
		}
		if ratio := s.Report().Makespan / lowerbound.Cmax(jobs, m); ratio > 10 {
			t.Fatalf("%s: Cmax ratio %v fails the sanity envelope", rec.Policy, ratio)
		}
	}
}
