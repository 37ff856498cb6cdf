package experiments

import (
	"fmt"

	"repro/internal/bicriteria"
	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/dlt"
	"repro/internal/lowerbound"
	"repro/internal/moldable"
	"repro/internal/rigid"
	"repro/internal/scenario"
	"repro/internal/smart"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ablationAllotmentRun compares the MRT knapsack allotment against the
// greedy γ(λ) allotment (DESIGN.md ablation 1). Params: "ms", "n",
// "eps".
func ablationAllotmentRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "Ablation — MRT allotment selection: knapsack (paper) vs greedy γ(λ)"),
		"m", "n", "knapsack ratio", "greedy ratio", "knapsack iters", "greedy iters")
	ms := spec.Ints("ms", []int{32, 100})
	eps := spec.Float("eps", 0.01)
	if err := runRowCells(t, opt, len(ms), func(i int) ([]any, error) {
		m := ms[i]
		n := scaled(opt.Scale, spec.Int("n", 300))
		jobs := workload.Parallel(workload.GenConfig{N: n, M: m, Seed: opt.Seed + uint64(i)})
		costs := workload.Costs(jobs, m)
		lb := lowerbound.CmaxDualOf(costs, m)
		knap, err := moldable.MRTWithAllotOf(costs, m, lb, eps, moldable.SelectAllotments)
		if err != nil {
			return nil, err
		}
		greedy, err := moldable.MRTWithAllotOf(costs, m, lb, eps, moldable.GreedyAllotments)
		if err != nil {
			return nil, err
		}
		return []any{m, n,
			knap.Schedule.Makespan() / lb, greedy.Schedule.Makespan() / lb,
			knap.Iterations, greedy.Iterations}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// ablationDoublingBaseRun compares initial-deadline choices in the
// bi-criteria algorithm: smallest job time (default) vs the instance
// lower bound vs an oversized base (DESIGN.md ablation 2). Params:
// "m", "n".
func ablationDoublingBaseRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(1,
		title(spec, "Ablation — bi-criteria initial deadline d"),
		"d choice", "batches", "Cmax ratio", "ΣwC ratio")
	m := spec.Int("m", 64)
	n := scaled(opt.Scale, spec.Int("n", 300))
	jobs := workload.Parallel(workload.GenConfig{N: n, M: m, Seed: opt.Seed, Weighted: true})
	// The choice cells share the cost summaries read-only.
	costs := workload.Costs(jobs, m)
	lb := lowerbound.CmaxDualOf(costs, m)
	choices := []struct {
		name string
		d    float64
	}{
		{"min job time (default)", 0},
		{"instance LB", lb},
		{"8×LB (oversized)", 8 * lb},
	}
	if err := runRowCells(t, opt, len(choices), func(i int) ([]any, error) {
		res, err := bicriteria.ScheduleOf(costs, m, bicriteria.Options{
			InitialDeadline: choices[i].d,
		})
		if err != nil {
			return nil, err
		}
		return []any{choices[i].name, len(res.Batches), res.CmaxRatio(), res.WCRatio()}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// ablationShelfFillRun compares SMART's first-fit shelf filling against
// best-fit (DESIGN.md ablation 3). Params: "ms", "n".
func ablationShelfFillRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "Ablation — SMART shelf filling rule"),
		"m", "n", "first-fit ΣwC", "best-fit ΣwC", "FF shelves", "BF shelves")
	ms := spec.Ints("ms", []int{16, 64})
	if err := runRowCells(t, opt, len(ms), func(i int) ([]any, error) {
		m := ms[i]
		n := scaled(opt.Scale, spec.Int("n", 400))
		jobs := workload.Parallel(workload.GenConfig{
			N: n, M: m, Seed: opt.Seed + uint64(i), Weighted: true, RigidFraction: 1,
		})
		lb := lowerbound.SumWeightedCompletion(jobs, m)
		ff, nFF, err := smart.Schedule(jobs, m, smart.FirstFit)
		if err != nil {
			return nil, err
		}
		bf, nBF, err := smart.Schedule(jobs, m, smart.BestFit)
		if err != nil {
			return nil, err
		}
		return []any{m, n,
			ff.SumWeightedCompletion() / lb,
			bf.SumWeightedCompletion() / lb,
			nFF, nBF}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// ablationChunkRun sweeps the self-scheduling chunk size under latency
// (DESIGN.md ablation 4). Params: "w", "latency", "chunks".
func ablationChunkRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	W := spec.Float("w", 10000)
	latency := spec.Float("latency", 1)
	t := newTable(1,
		title(spec, fmt.Sprintf("Ablation — DLT self-scheduling chunk size (W=%g, latency %g)", W, latency)),
		"chunk", "makespan", "messages", "vs 1-round")
	mkStar := func() *dlt.Star { return dlt.Bus([]float64{1, 1, 1, 1, 1, 1, 1, 1}, 0.05, latency) }
	one, err := dlt.SingleRound(mkStar(), W)
	if err != nil {
		return nil, err
	}
	chunks := spec.Floats("chunks", []float64{W / 1000, W / 100, W / 20, W / 8})
	if err := runRowCells(t, opt, len(chunks), func(i int) ([]any, error) {
		d, err := dlt.SelfSchedule(mkStar(), W, chunks[i])
		if err != nil {
			return nil, err
		}
		return []any{chunks[i], d.Makespan, d.Messages, d.Makespan / one.Makespan}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// ablationKillPolicyRun compares best-effort eviction rules on a loaded
// cluster (DESIGN.md ablation 5). Params: "n", "tasks".
func ablationKillPolicyRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(1,
		title(spec, "Ablation — best-effort kill policy (single 64-proc cluster)"),
		"policy", "BE done", "kills", "wasted work", "local Δ")
	n := scaled(opt.Scale, spec.Int("n", 60))
	kps := []struct {
		name string
		kill cluster.KillPolicy
	}{
		{"kill-newest", cluster.KillNewest},
		{"kill-largest-remaining", cluster.KillLargestRemaining},
	}
	if err := runRowCells(t, opt, len(kps), func(i int) ([]any, error) {
		jobs := workload.Parallel(workload.GenConfig{
			N: n, M: 64, Seed: opt.Seed, RigidFraction: 1, ArrivalRate: 0.01,
		})
		nBE := scaled(opt.Scale, spec.Int("tasks", 2000))
		sim := des.NewWithCapacity(len(jobs) + nBE)
		cs, err := cluster.New(sim, 64, 1, cluster.EASYPolicy{}, kps[i].kill)
		if err != nil {
			return nil, err
		}
		// Heterogeneous task lengths: the eviction choice matters only
		// when victims differ in remaining work.
		rng := stats.NewRNG(opt.Seed + 1000)
		for k := 0; k < nBE; k++ {
			cs.SubmitBestEffort(cluster.BETask{
				BagID: 0, Duration: rng.Range(20, 600),
			})
		}
		for _, j := range jobs {
			if err := cs.Submit(j); err != nil {
				return nil, err
			}
		}
		if err := cs.Run(); err != nil {
			return nil, err
		}
		st := cs.BestEffort()
		return []any{kps[i].name, st.Completed, st.Killed, st.WastedWork, 0.0}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// ablationCompactionRun measures the left-shift compaction post-pass
// (rigid.Compact) applied to the batch-structured bi-criteria schedules:
// batches leave idle steps at batch boundaries that compaction reclaims
// without moving any job later. Params: "m", "n".
func ablationCompactionRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "Ablation — compaction post-pass on bi-criteria schedules"),
		"family", "n", "Cmax ratio", "compacted", "ΣwC ratio", "compacted ")
	m := spec.Int("m", 64)
	families := []bool{false, true}
	if err := runRowCells(t, opt, len(families), func(i int) ([]any, error) {
		parallel := families[i]
		family := "non-parallel"
		if parallel {
			family = "parallel"
		}
		n := scaled(opt.Scale, spec.Int("n", 300))
		cfg := workload.GenConfig{N: n, M: m, Seed: opt.Seed + uint64(i), Weighted: true}
		var jobs []*workload.Job
		if parallel {
			jobs = workload.Parallel(cfg)
		} else {
			jobs = workload.Sequential(cfg)
		}
		res, err := bicriteria.Schedule(jobs, m, bicriteria.Options{})
		if err != nil {
			return nil, err
		}
		compacted, err := rigid.Compact(res.Schedule)
		if err != nil {
			return nil, err
		}
		if err := compacted.Validate(); err != nil {
			return nil, err
		}
		// Schedule's bounds are lowerbound.Cmax and SumWeightedCompletion
		// of the same jobs on m, bit for bit.
		cmaxLB, wcLB := res.CmaxLB, res.WCLB
		return []any{family, n,
			res.Schedule.Makespan() / cmaxLB,
			compacted.Makespan() / cmaxLB,
			res.Schedule.SumWeightedCompletion() / wcLB,
			compacted.SumWeightedCompletion() / wcLB}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}
