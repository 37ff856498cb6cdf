package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/registry"
	"repro/internal/runtrace"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// defaultGridClusters is the heterogeneous 4-cluster fleet the grid
// policies are compared on by default (mixed widths and speeds).
func defaultGridClusters() []scenario.Cluster {
	return []scenario.Cluster{
		{Name: "big", M: 64, Speed: 1},
		{Name: "fast", M: 32, Speed: 1.5},
		{Name: "old", M: 32, Speed: 0.75},
		{Name: "tiny", M: 16, Speed: 2},
	}
}

// gridMembers materializes a declarative fleet with one shared queue
// policy on every cluster.
func gridMembers(clusters []scenario.Cluster, newPolicy func() cluster.Policy) []grid.Member {
	var members []grid.Member
	for _, c := range clusters {
		speed := c.Speed
		if speed == 0 {
			speed = 1
		}
		members = append(members, grid.Member{
			Cluster: &platform.Cluster{Name: c.Name, Nodes: c.M, ProcsPerNode: 1, Speed: speed},
			Policy:  newPolicy(),
		})
	}
	return members
}

// gridRun is the generic "grid" kind: the online grid routing catalog
// (the policies the gridd broker serves) swept head-to-head on one
// shared arrival stream plus one best-effort campaign, via the offline
// routed-grid twin of the broker (grid.Routed). Reports the local §3
// criteria and the campaign's best-effort loss per routing policy.
//
// Spec surface: Platform.Clusters (the fleet; default the 4-cluster
// mix), Workload (the shared stream), Policies (a single queue policy
// for every cluster; default "easy"), and Grid (campaign size/run time,
// exchange period, threshold, max move, and Policy — one routing policy
// to run, or empty to sweep the whole grid catalog). The built-in
// "gridpolicies" Spec (T15) is an instance of this kind with the paper
// defaults, and stays registry-driven: a policy added to the grid
// catalog shows up there automatically.
func gridRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	headers := []string{"policy", "migr", "mean flow", "max flow", "makespan", "grid done", "kills", "wasted %", "grid Cmax"}
	if spec.Faults != nil {
		// Fault columns only when a plan is set, keeping the healthy
		// table (and its goldens) in its historical shape.
		headers = append(headers, "rejected", "crashes", "requeues")
	}
	t := newTable(1,
		title(spec, "T15 — online grid policies (broker routing catalog): 4 heterogeneous clusters, shared stream + campaign"),
		headers...)
	gen, cfg := genConfig(spec.Workload, workload.GenConfig{
		N: 240, M: 32, ArrivalRate: 0.1, RigidFraction: 1, MaxProcsCap: 32,
	})
	g := spec.Grid
	if g == nil {
		g = &scenario.Grid{}
	}
	// campaign_tasks: -1 disables the campaign; 0/absent keeps the
	// paper default.
	tasks := g.CampaignTasks
	if tasks == 0 {
		tasks = 2400
	}
	if tasks < 0 {
		tasks = 0
	} else {
		tasks = scaled(opt.Scale, tasks)
	}
	runTime := g.CampaignRunTime
	if runTime == 0 {
		runTime = 30
	}
	ropt := grid.RouterOptions{Seed: opt.Seed, Threshold: g.Threshold, MaxMove: g.MaxMove}
	if ropt.Threshold == 0 {
		ropt.Threshold = 1.3
	}
	if ropt.MaxMove == 0 {
		ropt.MaxMove = 8
	}
	period := g.ExchangePeriod
	if period == 0 {
		period = 30
	}
	clusters := defaultGridClusters()
	if spec.Platform != nil && len(spec.Platform.Clusters) > 0 {
		clusters = spec.Platform.Clusters
	}
	queueName := "easy"
	if len(spec.Policies) == 1 {
		queueName = spec.Policies[0]
	} else if len(spec.Policies) > 1 {
		return nil, fmt.Errorf("experiments: grid kind takes at most one queue policy, got %d", len(spec.Policies))
	}
	queue, err := registry.Get(queueName)
	if err != nil {
		return nil, err
	}
	if !queue.Caps.Online {
		return nil, fmt.Errorf("experiments: grid queue policy %q is not online-capable", queueName)
	}
	kill, err := cluster.ParseKillPolicy(spec.String("kill", "newest"))
	if err != nil {
		return nil, err
	}
	var entries []*registry.GridEntry
	if g.Policy != "" {
		e, err := registry.GetGrid(g.Policy)
		if err != nil {
			return nil, err
		}
		entries = []*registry.GridEntry{e}
	} else {
		entries = registry.Grids()
	}
	n := scaled(opt.Scale, cfg.N)
	cfg.N, cfg.Seed = n, opt.Seed
	jobs, err := generate(gen, cfg)
	if err != nil {
		return nil, err
	}
	tc := newTraceCollector(spec, len(entries))
	if err := runRowCells(t, opt, len(entries), func(i int) ([]any, error) {
		entry := entries[i]
		router := entry.New(ropt)
		var bags []*workload.Bag
		if tasks > 0 {
			bags = []*workload.Bag{{ID: 0, Runs: tasks, RunTime: runTime}}
		}
		r, err := grid.NewRouted(gridMembers(clusters, queue.NewPolicy), jobs, bags, router,
			grid.RoutedOptions{ExchangePeriod: period}, kill)
		if err != nil {
			return nil, err
		}
		var crashes, requeues int
		if spec.Faults != nil {
			r.SetPartitions(spec.Faults.Partitions)
			if planHasClusterFaults(*spec.Faults) {
				for ci := range clusters {
					fp := *spec.Faults
					fp.Partitions = nil
					// Every cluster churns from its own stream (one shared
					// stream would crash the whole fleet in lockstep).
					fp.Seed ^= opt.Seed + uint64(ci)*0x9e3779b97f4a7c15
					if _, err := faults.Attach(r.Sim(ci), fp); err != nil {
						return nil, err
					}
				}
			}
		}
		rec := tc.recorder()
		if rec != nil {
			for ci := range clusters {
				name := clusters[ci].Name
				if name == "" {
					name = fmt.Sprintf("c%d", ci)
				}
				rec.Attach(r.Sim(ci), name)
			}
			r.OnMigrate = func(j *workload.Job, src, dst int, now float64) {
				rec.Record(now, runtrace.EvMigrate, j.ID, j.MinProcs, dst)
			}
		}
		if err := r.Run(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", entry.Name, err)
		}
		tc.add(i, entry.Name, rec)
		st := r.Stats()
		if st.Rejected > 0 && spec.Faults == nil {
			// Under a fault plan rejections are expected (a job can
			// arrive while every wide-enough cluster is partitioned);
			// they get their own column instead of failing the run.
			return nil, fmt.Errorf("experiments: %s rejected %d jobs", entry.Name, st.Rejected)
		}
		if spec.Faults != nil {
			for ci := range clusters {
				fs := r.Sim(ci).FaultStats()
				crashes += fs.Crashes
				requeues += fs.Requeues
			}
		}
		rep := metrics.NewReport(r.AllCompletions(), 0)
		wastedPct := 0.0
		if st.DoneWork+st.WastedWork > 0 {
			wastedPct = 100 * st.WastedWork / (st.DoneWork + st.WastedWork)
		}
		row := []any{entry.Name, st.Migrations,
			rep.MeanFlow, rep.MaxFlow, rep.Makespan,
			st.TasksCompleted, st.TasksKilled, wastedPct, st.GridMakespan}
		if spec.Faults != nil {
			row = append(row, st.Rejected, crashes, requeues)
		}
		return row, nil
	}); err != nil {
		return nil, err
	}
	res := t.Result()
	tc.install(res)
	return res, nil
}
