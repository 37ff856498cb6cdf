// Quickstart: profile an application, let the library pick the policy
// the paper recommends, run it, and score the schedule on the §3
// criteria.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/workload"
)

func main() {
	// A cluster of 100 machines — the Figure 2 setting.
	const m = 100

	// 200 moldable parallel jobs with priorities, all available now.
	jobs := workload.Parallel(workload.GenConfig{N: 200, M: m, Seed: 42, Weighted: true})

	// The paper's question: which policy for this application?
	profile := core.Profile{Moldable: true, Criterion: core.BiCriteria}
	rec := core.Recommend(profile)
	fmt.Printf("application: offline moldable, both criteria\n")
	fmt.Printf("recommended: %s (%s, guarantee %s)\n", rec.Policy, rec.Section, rec.Guarantee)

	// Run it.
	schedule, _, err := core.Run(jobs, m, profile)
	if err != nil {
		log.Fatal(err)
	}

	// Score against certified lower bounds.
	report := schedule.Report()
	cmaxLB := lowerbound.Cmax(jobs, m)
	wcLB := lowerbound.SumWeightedCompletion(jobs, m)
	fmt.Printf("makespan  : %.1f  (%.2fx the lower bound)\n", report.Makespan, report.Makespan/cmaxLB)
	fmt.Printf("ΣwC       : %.3g  (%.2fx the lower bound)\n",
		report.SumWeightedCompletion, report.SumWeightedCompletion/wcLB)
	fmt.Printf("utilization: %.0f%%\n", 100*report.Utilization)

	// Contrast with a pure-makespan profile.
	rec2 := core.Recommend(core.Profile{Moldable: true, Criterion: core.Makespan})
	fmt.Printf("\nfor Cmax only the paper picks: %s (%s, guarantee %s)\n",
		rec2.Policy, rec2.Section, rec2.Guarantee)
}
