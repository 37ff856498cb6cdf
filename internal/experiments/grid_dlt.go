package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/dlt"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/rigid"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// dltPlatforms builds the T5 platforms fresh (cells mutate Latency, so
// each cell constructs its own copy).
func dltPlatforms() []struct {
	name string
	star *dlt.Star
} {
	return []struct {
		name string
		star *dlt.Star
	}{
		{"bus-4", dlt.Bus([]float64{1, 1, 1, 1}, 0.2, 0)},
		{"star-hetero", &dlt.Star{Workers: []dlt.Worker{
			{Compute: 0.8, Link: 0.02},
			{Compute: 1.0, Link: 0.08},
			{Compute: 1.3, Link: 0.40},
			{Compute: 1.6, Link: 0.40},
		}}},
	}
}

// dltRun is experiment T5 (§2.1): single-round vs multi-round vs
// dynamic self-scheduling across latency regimes on bus and star
// platforms, with the crossover the paper's model discussion predicts.
// Params: "latencies", "w" (total load).
func dltRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "T5 — §2.1 divisible load policies (makespans, lower bound in last column)"),
		"platform", "latency", "1 round", "4 rounds", "16 rounds", "self-sched", "LB")
	latencies := spec.Floats("latencies", []float64{0, 1, 10, 100})
	nPlatforms := len(dltPlatforms())
	W := spec.Float("w", 10000)
	if err := runRowCells(t, opt, nPlatforms*len(latencies), func(i int) ([]any, error) {
		pf := dltPlatforms()[i/len(latencies)]
		pf.star.Latency = latencies[i%len(latencies)]
		one, err := dlt.SingleRound(pf.star, W)
		if err != nil {
			return nil, err
		}
		four, err := dlt.MultiRound(pf.star, W, 4)
		if err != nil {
			return nil, err
		}
		sixteen, err := dlt.MultiRound(pf.star, W, 16)
		if err != nil {
			return nil, err
		}
		dyn, err := dlt.SelfSchedule(pf.star, W, W/100)
		if err != nil {
			return nil, err
		}
		return []any{pf.name, pf.star.Latency,
			one.Makespan, four.Makespan, sixteen.Makespan, dyn.Makespan,
			dlt.LowerBound(pf.star, W)}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// communityMembers builds the CIMENT members with per-cluster community
// workloads (jobs IDs unique across the grid).
func communityMembers(seed uint64, jobsPerCluster int, rate float64) []grid.Member {
	g := platform.CIMENT()
	var members []grid.Member
	id := 0
	for _, cl := range g.Clusters {
		jobs := workload.Communities(workload.CIMENTCommunities(), jobsPerCluster, cl.Procs(), rate, seed)
		seed++
		for _, j := range jobs {
			j.ID = id
			id++
		}
		members = append(members, grid.Member{Cluster: cl, Policy: cluster.EASYPolicy{}, Local: jobs})
	}
	return members
}

// cigriRun is experiment T6 (§5.2 centralized): the CIMENT grid running
// community jobs plus a multi-parametric campaign. Reports the fairness
// contract (local mean flow identical with and without the grid), grid
// throughput and the kill/resubmit overhead. Params: "runs" (campaign
// size), "run_time" (per-task duration).
//
// Each load level is a cell, and within a cell the isolated baseline and
// the grid run are themselves independent cells (both rebuild the same
// member workloads from the cell seed), so a full parallel run keeps all
// four simulations in flight.
func cigriRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "T6 — §5.2 centralized CiGri on CIMENT (Figure 3 platform)"),
		"local load", "bag tasks", "local Δflow", "grid done", "kills", "wasted %", "grid makespan")
	loads := []struct {
		name string
		rate float64
		jobs int
	}{
		{"light", 0.001, scaled(opt.Scale, 40)},
		{"heavy", 0.01, scaled(opt.Scale, 120)},
	}
	runTime := spec.Float("run_time", 60)
	type gridResult struct {
		flowIso  float64 // isolated-run mean flow (sub-cell 0)
		flowGrid float64 // grid-run mean flow (sub-cell 1)
		stats    grid.RoutedStats
	}
	if err := runRowCells(t, opt, len(loads), func(i int) ([]any, error) {
		load := loads[i]
		cellSeed := opt.Seed + uint64(10*i)
		runs := scaled(opt.Scale, spec.Int("runs", 5000))
		parts, err := runCells(opt, 2, func(sub int) (gridResult, error) {
			members := communityMembers(cellSeed, load.jobs, load.rate)
			if sub == 0 {
				iso, err := grid.RunIsolated(members, cluster.KillNewest)
				if err != nil {
					return gridResult{}, err
				}
				return gridResult{flowIso: metrics.NewReport(iso, 0).MeanFlow}, nil
			}
			bags := []*workload.Bag{{ID: 0, Runs: runs, RunTime: runTime}}
			g, err := grid.NewRouted(members, nil, bags, grid.NewCentralizedRouter(grid.RouterOptions{}),
				grid.RoutedOptions{}, cluster.KillNewest)
			if err != nil {
				return gridResult{}, err
			}
			g.FeedOnIdle()
			if err := g.Run(); err != nil {
				return gridResult{}, err
			}
			return gridResult{flowGrid: metrics.NewReport(g.AllCompletions(), 0).MeanFlow, stats: g.Stats()}, nil
		})
		if err != nil {
			return nil, err
		}
		st := parts[1].stats
		delta := math.Abs(parts[1].flowGrid - parts[0].flowIso)
		wastedPct := 0.0
		if st.DoneWork+st.WastedWork > 0 {
			wastedPct = 100 * st.WastedWork / (st.DoneWork + st.WastedWork)
		}
		return []any{load.name, runs, delta, st.TasksCompleted, st.TasksKilled,
			wastedPct, st.GridMakespan}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// decentralizedRun is experiment T7 (§5.2 decentralized): the same
// imbalanced workload run isolated versus with periodic load exchange.
// The three schemes (isolated, push, pull) are independent cells over
// clones of one shared workload. Params: "n", "period", "threshold",
// "max_move".
func decentralizedRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(1,
		title(spec, "T7 — §5.2 decentralized load exchange (4×32-proc clusters, all load on cluster 0)"),
		"scheme", "migrations", "mean flow", "max flow", "makespan")
	rng := stats.NewRNG(opt.Seed)
	n := scaled(opt.Scale, spec.Int("n", 200))
	period := spec.Float("period", 30)
	threshold := spec.Float("threshold", 1.3)
	maxMove := spec.Int("max_move", 8)
	var jobs []*workload.Job
	clock := 0.0
	for i := 0; i < n; i++ {
		clock += rng.Exp(0.2)
		procs := rng.IntRange(1, 16)
		jobs = append(jobs, &workload.Job{
			ID: i, Kind: workload.Rigid, Weight: 1, DueDate: -1, Release: clock,
			SeqTime: rng.Range(30, 600) * float64(procs), MinProcs: procs, MaxProcs: procs,
			Model: workload.Linear{},
		})
	}
	mkMembers := func(js []*workload.Job) []grid.Member {
		split := grid.SplitJobsSkewed(js, 4, 1.0)
		var ms []grid.Member
		for i := 0; i < 4; i++ {
			ms = append(ms, grid.Member{
				Cluster: &platform.Cluster{
					Name: fmt.Sprintf("c%d", i), Nodes: 32, ProcsPerNode: 1, Speed: 1,
				},
				Policy: cluster.EASYPolicy{},
				Local:  split[i],
			})
		}
		return ms
	}
	if err := runRowCells(t, opt, 3, func(i int) ([]any, error) {
		members := mkMembers(jobs)
		switch i {
		case 0:
			iso, err := grid.RunIsolated(members, cluster.KillNewest)
			if err != nil {
				return nil, err
			}
			rep := metrics.NewReport(iso, 0)
			return []any{"isolated", 0, rep.MeanFlow, rep.MaxFlow, rep.Makespan}, nil
		default:
			scheme, exchange := "push exchange", grid.NewPushExchange
			if i == 2 {
				scheme, exchange = "pull stealing", grid.NewPullExchange
			}
			r, err := grid.NewRouted(members, nil, nil,
				exchange(grid.RouterOptions{Threshold: threshold, MaxMove: maxMove}),
				grid.RoutedOptions{ExchangePeriod: period}, cluster.KillNewest)
			if err != nil {
				return nil, err
			}
			if err := r.Run(); err != nil {
				return nil, err
			}
			rep := metrics.NewReport(r.AllCompletions(), 0)
			return []any{scheme, r.Stats().Migrations, rep.MeanFlow, rep.MaxFlow, rep.Makespan}, nil
		}
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// reservationsRun is experiment T9 (§5.1): scheduling around advance
// reservations with FCFS versus conservative backfilling. Params: "m",
// "n".
func reservationsRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "T9 — §5.1 reservations: makespan ratios to the reservation-free lower bound"),
		"reserved", "window", "FCFS", "conservative", "no-reservation conservative")
	m := spec.Int("m", 32)
	n := scaled(opt.Scale, spec.Int("n", 100))
	jobs := workload.Parallel(workload.GenConfig{
		N: n, M: m, Seed: opt.Seed, RigidFraction: 1, MaxProcsCap: 16, ArrivalRate: 0.05,
	})
	resCfgs := []struct {
		procs int
		end   float64
	}{
		{8, 2000}, {16, 4000},
	}
	// Cell 0 is the reservation-free baseline every row normalizes by;
	// cells 1..n are the reservation scenarios (FCFS + conservative
	// makespans). The profile builders only read the shared job slice.
	type resCell struct {
		fcfs, cons float64
	}
	cells, err := runCells(opt, 1+len(resCfgs), func(i int) (resCell, error) {
		if i == 0 {
			base, err := rigid.Conservative(jobs, m)
			if err != nil {
				return resCell{}, err
			}
			return resCell{cons: base.Makespan()}, nil
		}
		res := resCfgs[i-1]
		cal, err := platform.NewCalendar(m, []platform.Reservation{
			{Name: "demo", Start: 500, End: res.end, Procs: res.procs},
		})
		if err != nil {
			return resCell{}, err
		}
		f, err := rigid.FCFSWithCalendar(jobs, m, cal)
		if err != nil {
			return resCell{}, err
		}
		c, err := rigid.ConservativeWithCalendar(jobs, m, cal)
		if err != nil {
			return resCell{}, err
		}
		for _, s := range []*sched.Schedule{f, c} {
			if err := s.ValidateWith(sched.ValidateOptions{Calendar: cal}); err != nil {
				return resCell{}, err
			}
		}
		return resCell{fcfs: f.Makespan(), cons: c.Makespan()}, nil
	})
	if err != nil {
		return nil, err
	}
	base := cells[0].cons
	for i, res := range resCfgs {
		t.AddRow(
			fmt.Sprintf("%d/%d procs", res.procs, m),
			fmt.Sprintf("[500,%g)", res.end),
			cells[i+1].fcfs/base,
			cells[i+1].cons/base,
			1.0)
	}
	return t.Result(), nil
}
