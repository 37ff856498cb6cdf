package experiments

import (
	"fmt"
	"sync"

	"repro/internal/bicriteria"
	"repro/internal/dlt"
	"repro/internal/hetero"
	"repro/internal/lowerbound"
	"repro/internal/malleable"
	"repro/internal/moldable"
	"repro/internal/platform"
	"repro/internal/rigid"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/smart"
	"repro/internal/workload"
)

// malleableRun is the extension experiment for §2.2's third task
// class, which the paper defers ("we will not consider malleability
// here"): EQUIPARTITION and weight-proportional malleable scheduling
// versus the moldable MRT one-shot choice on the same jobs. It
// quantifies the paper's expectation that "malleability is much more
// easily usable from the scheduling point of view". Params: "ms", "n".
func malleableRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "EXT1 — §2.2 malleable jobs (paper's future work): EQUI vs moldable MRT (ratios to lower bound)"),
		"m", "n", "moldable MRT", "malleable EQUI", "EQUI reallocs", "weighted EQUI ΣwC", "MRT ΣwC")
	ms := spec.Ints("ms", []int{16, 64})
	if err := runRowCells(t, opt, len(ms), func(i int) ([]any, error) {
		m := ms[i]
		n := scaled(opt.Scale, spec.Int("n", 150))
		jobs := workload.Parallel(workload.GenConfig{N: n, M: m, Seed: opt.Seed + uint64(i), Weighted: true})
		for _, j := range jobs {
			j.Kind = workload.Malleable
		}
		costs := workload.Costs(jobs, m)
		cmaxLB := lowerbound.CmaxDualOf(costs, m)
		wcLB := lowerbound.SumWeightedCompletionOf(costs, m)
		mrt, err := moldable.MRTOf(costs, m, cmaxLB, 0.01)
		if err != nil {
			return nil, err
		}
		equi, err := malleable.Schedule(jobs, m, malleable.Equi)
		if err != nil {
			return nil, err
		}
		wp, err := malleable.Schedule(jobs, m, malleable.WeightProportional)
		if err != nil {
			return nil, err
		}
		var wpWC float64
		for _, c := range wp.Completions {
			wpWC += c.Job.Weight * c.End
		}
		mrtWC := mrt.Schedule.SumWeightedCompletion()
		return []any{m, n,
			mrt.Schedule.Makespan() / cmaxLB,
			equi.Makespan / cmaxLB,
			equi.Reallocations,
			wpWC / wcLB,
			mrtWC / wcLB}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// treeDLTRun is the extension experiment for the paper's reference [4]
// (Cheng & Robertazzi tree networks): optimal single-round distribution
// on trees of growing depth with the same worker pool, quantifying the
// store-and-forward cost of hierarchy versus a flat star — the paper's
// §1.2 observation that interconnects "may be hierarchical".
// Params: "w" (total load).
func treeDLTRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "EXT2 — [4] divisible load on tree networks (same 13 workers, growing depth; W=10000)"),
		"topology", "nodes", "makespan", "vs flat star", "LB")
	W := spec.Float("w", 10000)
	mkNode := func(name string, link float64) *dlt.TreeNode {
		return &dlt.TreeNode{Name: name, Compute: 1, LinkToParent: link}
	}
	// Each cell builds its own topology (the solver annotates nodes).
	topologies := []struct {
		name  string
		build func() *dlt.TreeNode
	}{
		{"flat star (depth 1)", func() *dlt.TreeNode {
			flat := mkNode("root", 0)
			for i := 0; i < 12; i++ {
				flat.Children = append(flat.Children, mkNode(fmt.Sprintf("w%d", i), 0.05))
			}
			return flat
		}},
		{"3x3 tree (depth 2)", func() *dlt.TreeNode {
			twoLevel := mkNode("root", 0)
			id := 0
			for i := 0; i < 3; i++ {
				mid := mkNode(fmt.Sprintf("m%d", i), 0.05)
				for k := 0; k < 3; k++ {
					mid.Children = append(mid.Children, mkNode(fmt.Sprintf("l%d", id), 0.05))
					id++
				}
				twoLevel.Children = append(twoLevel.Children, mid)
			}
			return twoLevel
		}},
		{"chain (depth 12)", func() *dlt.TreeNode { return dlt.Chain(12, 1, 0.05) }},
	}
	type treeCell struct {
		size     int
		makespan float64
		lb       float64
	}
	cells, err := runCells(opt, len(topologies), func(i int) (treeCell, error) {
		n := topologies[i].build()
		d, err := dlt.TreeSingleRound(n, W)
		if err != nil {
			return treeCell{}, err
		}
		return treeCell{size: n.Size(), makespan: d.Makespan, lb: dlt.TreeLowerBound(n, W)}, nil
	})
	if err != nil {
		return nil, err
	}
	flat := cells[0].makespan
	for i, c := range topologies {
		t.AddRow(c.name, cells[i].size, cells[i].makespan, cells[i].makespan/flat, cells[i].lb)
	}
	return t.Result(), nil
}

// criteriaRun is extension experiment EXT3: the paper's title question
// rendered as a matrix — every policy scored on every §3 criterion over
// one shared workload. No policy wins everywhere, which is exactly the
// paper's argument for per-application policy selection. Params: "m",
// "n".
func criteriaRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(1,
		title(spec, "EXT3 — §3 criteria matrix: one workload, every policy, every criterion (ratios to lower bounds where defined)"),
		"policy", "Cmax", "ΣwC", "mean flow", "max stretch", "late", "util %")
	m := spec.Int("m", 64)
	n := scaled(opt.Scale, spec.Int("n", 200))
	jobs := workload.Parallel(workload.GenConfig{
		N: n, M: m, Seed: opt.Seed, Weighted: true, DueDateSlack: 8,
	})
	// Policy cells share the workload and its cost summaries read-only.
	costs := workload.Costs(jobs, m)
	cmaxLB := lowerbound.CmaxDualOf(costs, m)
	wcLB := lowerbound.SumWeightedCompletionOf(costs, m)

	type policy struct {
		name string
		run  func(jobs []*workload.Job) (*sched.Schedule, error)
	}
	policies := []policy{
		{"mrt (§4.1)", func(jobs []*workload.Job) (*sched.Schedule, error) {
			r, err := moldable.MRTOf(costs, m, cmaxLB, 0.01)
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		}},
		{"smart (§4.3)", func(jobs []*workload.Job) (*sched.Schedule, error) {
			s, _, err := smart.Schedule(jobs, m, smart.FirstFit)
			return s, err
		}},
		{"bicriteria (§4.4)", func(jobs []*workload.Job) (*sched.Schedule, error) {
			r, err := bicriteria.ScheduleOf(costs, m, bicriteria.Options{})
			if err != nil {
				return nil, err
			}
			return r.Schedule, nil
		}},
		{"ffdh (§2.2)", func(jobs []*workload.Job) (*sched.Schedule, error) {
			sh, err := rigid.FFDH(jobs, m)
			if err != nil {
				return nil, err
			}
			return rigid.ShelvesToSchedule(sh, m), nil
		}},
		{"minwork+lpt", func(jobs []*workload.Job) (*sched.Schedule, error) {
			return moldable.MinWorkListOf(costs, m)
		}},
	}
	if err := runRowCells(t, opt, len(policies), func(i int) ([]any, error) {
		// Policy cells share the workload read-only (jobs are pure data).
		s, err := policies[i].run(jobs)
		if err != nil {
			return nil, err
		}
		rep := s.Report()
		return []any{policies[i].name,
			rep.Makespan / cmaxLB,
			rep.SumWeightedCompletion / wcLB,
			rep.MeanFlow,
			rep.MaxStretch,
			rep.LateCount,
			100 * rep.Utilization}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// heteroGridRun is extension experiment EXT4: two-level scheduling
// across the speed-heterogeneous CIMENT grid — the §2.2 "uniform
// processors" view at grid scale. Compares the speed-aware partition
// against using only the largest cluster and a speed-blind deal.
func heteroGridRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "EXT4 — two-level moldable scheduling on the CIMENT grid (makespans, ratios to grid LB)"),
		"workload", "partition", "grid makespan", "ratio", "clusters used")
	workloads := []struct {
		name string
		cfg  workload.GenConfig
	}{
		// Heavy-tailed wide jobs: the critical path binds; spreading
		// cannot beat the fastest cluster but must not lose to it.
		{"critical-bound", workload.GenConfig{N: scaled(opt.Scale, 1500), M: 64, Seed: opt.Seed}},
		// Many narrow jobs: aggregate capacity binds; spreading wins.
		{"capacity-bound", workload.GenConfig{
			N: scaled(opt.Scale, 3000), M: 16, Seed: opt.Seed + 1, SeqSigma: 0.8, MaxProcsCap: 16,
		}},
	}
	partitions := []struct {
		name string
		p    hetero.Partition
	}{
		{"speed-aware LPT", hetero.SpeedAwareLPT},
		{"largest cluster only", hetero.LargestOnly},
		{"round robin", hetero.RoundRobin},
	}
	// Each workload and its lower bound are built once, by the first cell
	// that needs them (see runTableCells), and shared read-only by the
	// partition cells (jobs are pure data; no scheduler mutates them —
	// the race-enabled test suite keeps that honest).
	type wlData struct {
		jobs []*workload.Job
		lb   float64
	}
	g := platform.CIMENT()
	data := make([]func() wlData, len(workloads))
	for i, wl := range workloads {
		data[i] = sync.OnceValue(func() wlData {
			jobs := workload.Parallel(wl.cfg)
			return wlData{jobs: jobs, lb: hetero.LowerBound(jobs, g)}
		})
	}
	if err := runRowCells(t, opt, len(workloads)*len(partitions), func(i int) ([]any, error) {
		wl := workloads[i/len(partitions)]
		part := partitions[i%len(partitions)]
		d := data[i/len(partitions)]()
		jobs, lb := d.jobs, d.lb
		asg, err := hetero.Schedule(jobs, g, part.p, 0.01)
		if err != nil {
			return nil, err
		}
		if err := asg.Validate(jobs, g); err != nil {
			return nil, err
		}
		used := map[int]bool{}
		for _, ci := range asg.JobCluster {
			used[ci] = true
		}
		return []any{wl.name, part.name, asg.Makespan, asg.Makespan / lb, len(used)}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}
