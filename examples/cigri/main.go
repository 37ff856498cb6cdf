// CiGri in miniature (§5.2 centralized design): the four CIMENT clusters
// of Figure 3 run their communities' local jobs while a central server
// feeds a multi-parametric campaign into the holes as best-effort tasks.
// Local jobs are never delayed; killed grid tasks are resubmitted.
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/workload"
)

func main() {
	ciment := platform.CIMENT()
	fmt.Printf("platform: %s — %d clusters, %d processors (Figure 3)\n",
		ciment.Name, len(ciment.Clusters), ciment.TotalProcs())

	// Local community workloads per cluster.
	var members []grid.Member
	seed := uint64(7)
	id := 0
	for _, cl := range ciment.Clusters {
		jobs := workload.Communities(workload.CIMENTCommunities(), 40, cl.Procs(), 0.002, seed)
		seed++
		for _, j := range jobs {
			j.ID = id // unique across the grid
			id++
		}
		members = append(members, grid.Member{
			Cluster: cl, Policy: cluster.EASYPolicy{}, Local: jobs,
		})
	}

	// One multi-parametric campaign: 3000 runs of ~60 s.
	bags := []*workload.Bag{{ID: 0, Runs: 3000, RunTime: 60}}

	g, err := grid.NewRouted(members, nil, bags, grid.NewCentralizedRouter(grid.RouterOptions{}),
		grid.RoutedOptions{}, cluster.KillNewest)
	if err != nil {
		log.Fatal(err)
	}
	g.FeedOnIdle()
	if err := g.Run(); err != nil {
		log.Fatal(err)
	}

	st := g.Stats()
	fmt.Printf("\ngrid campaign: %d tasks completed, %d kill/resubmit events\n",
		st.TasksCompleted, st.TasksKilled)
	fmt.Printf("grid work done: %.0f s; wasted to kills: %.0f s (%.1f%%)\n",
		st.DoneWork, st.WastedWork, 100*st.WastedWork/(st.DoneWork+st.WastedWork))
	fmt.Printf("campaign makespan: %.0f s\n", st.GridMakespan)

	fmt.Println("\nper-cluster local service (grid jobs never delay local users):")
	for i, cl := range ciment.Clusters {
		cs := g.Sim(i).Completions()
		fmt.Printf("  %-9s %3d local jobs, mean flow %8.0f s, BE done %d / killed %d\n",
			cl.Name, len(cs), metrics.NewReport(cs, 0).MeanFlow,
			st.PerCluster[i].Completed, st.PerCluster[i].Killed)
	}
}
