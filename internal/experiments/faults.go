package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/lowerbound"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workload"
)

// planHasClusterFaults reports whether the plan injects anything into a
// single cluster (partitions are broker-level and handled separately).
func planHasClusterFaults(p scenario.Faults) bool {
	return p.MTBF > 0 || len(p.Outages) > 0 || len(p.Trace) > 0
}

// faultsRun is the "faults" kind: policy robustness under seeded node
// churn. One cell per MTBF value (0 = healthy baseline), every named
// online policy inside it, on a shared arrival stream plus a
// best-effort campaign whose killed tasks are resubmitted to the same
// cluster — the single-cluster model of the CiGri drift-back loop, so
// the BE loss and redistribution columns respond to the churn rate.
// The twin column is the availability-discounted makespan bound's
// relative error against the simulated makespan.
//
// Spec surface: Workload, Policies (default: the whole online catalog),
// Faults (optional base plan: MTTR/CrashProcs/Seed defaults for the
// sweep), params "mtbfs" (the MTBF axis; 0 rows run healthy),
// "crash_procs", "tasks" (campaign size), and "kill".
func faultsRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "EXT6 — policy robustness under node churn: §3 criteria and best-effort loss vs MTBF"),
		"MTBF", "policy", "Cmax ratio", "mean flow", "crashes", "requeues",
		"lost work", "BE done", "BE killed", "BE redist", "down %", "twin err %")
	gen, cfg := genConfig(spec.Workload, workload.GenConfig{
		N: 120, M: 64, ArrivalRate: 0.5, RigidFraction: 1,
	})
	mtbfs := spec.Floats("mtbfs", []float64{0, 2000, 500, 150})
	entries, err := resolvePolicies(spec.Policies, true)
	if err != nil {
		return nil, err
	}
	kill, err := cluster.ParseKillPolicy(spec.String("kill", "newest"))
	if err != nil {
		return nil, err
	}
	nBE := scaled(opt.Scale, spec.Int("tasks", 600))
	tc := newTraceCollector(spec, len(mtbfs))
	if err := runMultiRowCells(t, opt, len(mtbfs), func(i int) ([][]any, error) {
		mtbf := mtbfs[i]
		plan := scenario.Faults{}
		if spec.Faults != nil {
			plan = *spec.Faults
		}
		plan.Partitions = nil
		plan.MTBF = mtbf
		if mtbf == 0 {
			// Healthy baseline row: churn knobs off, scheduled outages
			// and traces from the base plan still apply (they are part
			// of the scenario, not the sweep).
			plan.MTTR, plan.CrashProcs, plan.MaxCrashes = 0, 0, 0
		} else if plan.CrashProcs == 0 {
			plan.CrashProcs = spec.Int("crash_procs", 8)
		}
		plan.Seed ^= opt.Seed + uint64(i)
		c := cfg
		c.N, c.Seed = scaled(opt.Scale, cfg.N), opt.Seed
		jobs, err := generate(gen, c)
		if err != nil {
			return nil, err
		}
		cmaxLB := lowerbound.Cmax(jobs, c.M)
		pred := faults.PredictCmax(jobs, c.M, plan)
		var out [][]any
		for _, e := range entries {
			sim := des.NewWithCapacity(len(jobs) + nBE)
			cs, err := cluster.New(sim, c.M, 1, e.NewPolicy(), kill)
			if err != nil {
				return nil, err
			}
			// Killed campaign tasks drift straight back to the same
			// cluster's best-effort queue (single-cluster stock).
			cs.OnBEKilled = func(bt cluster.BETask) { cs.SubmitBestEffort(bt) }
			if planHasClusterFaults(plan) {
				if _, err := faults.Attach(cs, plan); err != nil {
					return nil, err
				}
			}
			// Attach after the drift-back hook so the recorder chains it.
			rec := tc.recorder()
			rec.Attach(cs, "")
			rng := stats.NewRNG(opt.Seed + 7000 + uint64(i))
			for k := 0; k < nBE; k++ {
				cs.SubmitBestEffort(cluster.BETask{BagID: 0, Duration: rng.Range(20, 600)})
			}
			for _, j := range jobs {
				if err := cs.Submit(j); err != nil {
					return nil, err
				}
			}
			if err := cs.Run(); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
			}
			tc.add(i, e.Name, rec)
			rep := cs.Report()
			downPct := 0.0
			if now := sim.Now(); now > 0 {
				downPct = 100 * rep.Faults.DownProcSeconds / (float64(c.M) * now)
			}
			out = append(out, []any{
				mtbf, e.Name, rep.Makespan / cmaxLB, rep.MeanFlow,
				rep.Faults.Crashes, rep.Faults.Requeues, rep.Faults.LostWork,
				rep.BestEffort.Completed, rep.BestEffort.Killed, rep.BestEffort.Redistributed,
				downPct, 100 * faults.PredictionError(rep.Makespan, pred),
			})
		}
		return out, nil
	}); err != nil {
		return nil, err
	}
	res := t.Result()
	tc.install(res)
	return res, nil
}

// faultTwinRun is the "faulttwin" kind: the analytical twin validated
// against the simulator. One row per fault plan — healthy, light and
// heavy churn, a half-width outage, a total blackout, and a stepped
// availability trace — comparing the availability-discounted makespan
// lower bound of internal/faults/twin.go with the simulated makespan.
// The error column is (sim − predicted)/predicted; it stays positive
// because the twin is a lower bound.
//
// Spec surface: params "n", "m", "kill"; Policies (a single queue
// policy, default "easy").
func faultTwinRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(1,
		title(spec, "EXT7 — analytical twin: predicted (availability-discounted LB) vs simulated makespan per fault plan"),
		"plan", "crashes", "requeues", "down %", "sim Cmax", "twin Cmax", "err %")
	m := spec.Int("m", 32)
	n := scaled(opt.Scale, spec.Int("n", 400))
	queueName := "easy"
	if len(spec.Policies) == 1 {
		queueName = spec.Policies[0]
	} else if len(spec.Policies) > 1 {
		return nil, fmt.Errorf("experiments: faulttwin kind takes at most one queue policy, got %d", len(spec.Policies))
	}
	entries, err := resolvePolicies([]string{queueName}, true)
	if err != nil {
		return nil, err
	}
	kill, err := cluster.ParseKillPolicy(spec.String("kill", "newest"))
	if err != nil {
		return nil, err
	}
	plans := []struct {
		name string
		plan scenario.Faults
	}{
		{"healthy", scenario.Faults{}},
		{"churn-light", scenario.Faults{MTBF: 2000, MTTR: 200, CrashProcs: 4}},
		{"churn-heavy", scenario.Faults{MTBF: 300, MTTR: 60, CrashProcs: 8}},
		{"half-outage", scenario.Faults{Outages: []scenario.Outage{{Start: 400, End: 1600, Procs: m / 2}}}},
		{"blackout", scenario.Faults{Outages: []scenario.Outage{{Start: 600, End: 1200}}}},
		{"trace-steps", scenario.Faults{Trace: []scenario.AvailStep{
			{Time: 300, Avail: 3 * m / 4}, {Time: 900, Avail: m / 4}, {Time: 1500, Avail: m},
		}}},
	}
	if err := runRowCells(t, opt, len(plans), func(i int) ([]any, error) {
		plan := plans[i].plan
		plan.Seed = opt.Seed + uint64(i)
		jobs := workload.Parallel(workload.GenConfig{
			N: n, M: m, Seed: opt.Seed, RigidFraction: 1, ArrivalRate: 0.1,
		})
		cs, err := cluster.New(des.NewWithCapacity(len(jobs)+16), m, 1, entries[0].NewPolicy(), kill)
		if err != nil {
			return nil, err
		}
		if planHasClusterFaults(plan) {
			if _, err := faults.Attach(cs, plan); err != nil {
				return nil, err
			}
		}
		for _, j := range jobs {
			if err := cs.Submit(j); err != nil {
				return nil, err
			}
		}
		if err := cs.Run(); err != nil {
			return nil, fmt.Errorf("experiments: plan %s: %w", plans[i].name, err)
		}
		rep := cs.Report()
		pred := faults.PredictCmax(jobs, m, plan)
		downPct := 0.0
		if now := cs.DES.Now(); now > 0 {
			downPct = 100 * rep.Faults.DownProcSeconds / (float64(m) * now)
		}
		return []any{plans[i].name, rep.Faults.Crashes, rep.Faults.Requeues,
			downPct, rep.Makespan, pred, 100 * faults.PredictionError(rep.Makespan, pred)}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}
