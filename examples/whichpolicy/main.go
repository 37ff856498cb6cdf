// The paper's title, answered: enumerate the application taxonomy of §2
// and print the policy the analysis selects for each class, with its
// guarantee — then run each recommendation on a sample workload to show
// the guarantee holding.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/workload"
)

func main() {
	fmt.Println("Which policy for which application?  (§2 taxonomy × §3 criteria)")
	fmt.Println()

	profiles := []struct {
		desc string
		p    core.Profile
	}{
		{"offline moldable, makespan", core.Profile{Moldable: true}},
		{"online moldable, makespan", core.Profile{Moldable: true, Online: true}},
		{"rigid, weighted completion", core.Profile{Criterion: core.WeightedCompletion}},
		{"moldable, both criteria", core.Profile{Moldable: true, Criterion: core.BiCriteria}},
		{"offline rigid, makespan", core.Profile{}},
		{"online rigid, makespan", core.Profile{Online: true}},
		{"divisible (multi-parametric)", core.Profile{Divisible: true}},
	}
	for _, x := range profiles {
		rec := core.Recommend(x.p)
		fmt.Printf("%-30s → %-24s %-10s ratio %s\n",
			x.desc, rec.Policy, rec.Section, rec.Guarantee)
	}

	// Demonstrate the recommendations on a live instance.
	const m = 32
	fmt.Printf("\nrunning each PT recommendation on 60 jobs, m=%d:\n", m)
	for _, x := range profiles {
		if x.p.Divisible {
			continue // handled by the dlt package (see examples/dlt)
		}
		cfg := workload.GenConfig{N: 60, M: m, Seed: 7, Weighted: true}
		if x.p.Online {
			cfg.ArrivalRate = 0.1
		}
		if !x.p.Moldable {
			cfg.RigidFraction = 1
		}
		jobs := workload.Parallel(cfg)
		s, rec, err := core.Run(jobs, m, x.p)
		if err != nil {
			log.Fatal(err)
		}
		rep := s.Report()
		fmt.Printf("%-30s Cmax %8.0f (%.2fx LB)   ΣwC %10.0f (%.2fx LB)\n",
			rec.Policy,
			rep.Makespan, rep.Makespan/lowerbound.Cmax(jobs, m),
			rep.SumWeightedCompletion,
			rep.SumWeightedCompletion/lowerbound.SumWeightedCompletion(jobs, m))
	}
}
