// Package experiments contains the engine behind the scenario catalog:
// every table and figure of the paper's evaluation (see DESIGN.md §1
// for the experiment index) is expressed as a kind runner that expands
// a declarative scenario.Spec into independent cells and feeds them to
// the one cell loop (parallel.go).
//
// The package registers two things with internal/scenario at init time
// (catalog.go): the kind interpreters, and the built-in Specs that
// reproduce the paper's tables bit-identically. Callers run a table
// through scenario.Lookup + scenario.Run, the path the goldens pin.
//
// Every table is structured as a list of independent cells (one
// parameter combination each, with a deterministic per-cell seed) that
// runCells executes one at a time or several at once — see
// parallel.go for the determinism contract.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/batch"
	"repro/internal/bicriteria"
	"repro/internal/lowerbound"
	"repro/internal/moldable"
	"repro/internal/rigid"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/smart"
	"repro/internal/workload"
)

// scaled divides a paper-scale job count by the scale's JobFactor
// (floor 10; JobFactor 0 or 1 is paper scale).
func scaled(s scenario.Scale, n int) int {
	if s.JobFactor <= 1 {
		return n
	}
	if v := n / s.JobFactor; v >= 10 {
		return v
	}
	return 10
}

// title returns the spec's title override, or the kind's default.
func title(spec *scenario.Spec, def string) string {
	if spec != nil && spec.Title != "" {
		return spec.Title
	}
	return def
}

// mrtRun is experiment T1 (§4.1): the offline MRT algorithm versus its
// 3/2 + ε guarantee and the naive allotment baselines, across platform
// widths and job counts. Params: "ms", "ns" (the sweep axes), "eps".
func mrtRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "T1 — §4.1 offline moldable Cmax: MRT (3/2+ε) vs baselines (ratios to lower bound)"),
		"m", "n", "MRT", "λ-accepted", "MinWork+LPT", "MaxProcs+LPT", "γ(LB)+LPT", "bound")
	eps := spec.Float("eps", 0.01)
	type cell struct {
		m, n int
	}
	var cells []cell
	for _, m := range spec.Ints("ms", []int{16, 64, 100}) {
		for _, n := range spec.Ints("ns", []int{50, 200, 1000}) {
			cells = append(cells, cell{m, n})
		}
	}
	if err := runRowCells(t, opt, len(cells), func(i int) ([]any, error) {
		m, n := cells[i].m, scaled(opt.Scale, cells[i].n)
		jobs := workload.Parallel(workload.GenConfig{N: n, M: m, Seed: opt.Seed + uint64(i)})
		costs := workload.Costs(jobs, m)
		lb := lowerbound.CmaxDualOf(costs, m)
		res, err := moldable.MRTOf(costs, m, lb, eps)
		if err != nil {
			return nil, err
		}
		minw, err := moldable.MinWorkListOf(costs, m)
		if err != nil {
			return nil, err
		}
		maxp, err := moldable.MaxProcsListOf(costs, m)
		if err != nil {
			return nil, err
		}
		gl, err := moldable.GammaListOf(costs, m, lb)
		if err != nil {
			return nil, err
		}
		return []any{m, n,
			res.Schedule.Makespan() / lb,
			res.Lambda / lb,
			minw.Makespan() / lb,
			maxp.Makespan() / lb,
			gl.Makespan() / lb,
			"1.5+ε"}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// batchRun is experiment T2 (§4.2): the batch framework over MRT with
// release dates versus its 2ρ = 3 + ε guarantee, across arrival
// intensities. Params: "m", "n", "rates", "eps".
func batchRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(3,
		title(spec, "T2 — §4.2 online moldable Cmax: batches over MRT (ratios to lower bound, bound 3+ε)"),
		"m", "n", "arrival rate", "batches", "online ratio", "offline-MRT ratio")
	m := spec.Int("m", 64)
	eps := spec.Float("eps", 0.01)
	rates := spec.Floats("rates", []float64{0.05, 0.5, 5})
	if err := runRowCells(t, opt, len(rates), func(i int) ([]any, error) {
		rate := rates[i]
		n := scaled(opt.Scale, spec.Int("n", 300))
		jobs := workload.Parallel(workload.GenConfig{
			N: n, M: m, Seed: opt.Seed + uint64(i), ArrivalRate: rate,
		})
		costs := workload.Costs(jobs, m)
		lb := lowerbound.CmaxOf(costs, m)
		res, err := batch.OnlineMoldable(jobs, m, eps)
		if err != nil {
			return nil, err
		}
		// Offline reference: the same jobs with releases ignored, which
		// neither MRT nor the dual bound reads.
		dual := lowerbound.CmaxDualOf(costs, m)
		off, err := moldable.MRTOf(costs, m, dual, eps)
		if err != nil {
			return nil, err
		}
		return []any{m, n, rate, len(res.Batches),
			res.Schedule.Makespan() / lb,
			off.Schedule.Makespan() / dual}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// smartRun is experiment T3 (§4.3): SMART shelves versus the 8 / 8.53
// bounds and a submission-order list baseline. Params: "ms", "n".
func smartRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(3,
		title(spec, "T3 — §4.3 rigid completion-time sums: SMART shelves (ratios to lower bound)"),
		"m", "n", "weighted", "SMART ΣwC", "list ΣwC", "shelves", "bound")
	type cell struct {
		m        int
		weighted bool
	}
	var cells []cell
	for _, m := range spec.Ints("ms", []int{16, 64}) {
		for _, weighted := range []bool{false, true} {
			cells = append(cells, cell{m, weighted})
		}
	}
	if err := runRowCells(t, opt, len(cells), func(i int) ([]any, error) {
		m, weighted := cells[i].m, cells[i].weighted
		n := scaled(opt.Scale, spec.Int("n", 400))
		jobs := workload.Parallel(workload.GenConfig{
			N: n, M: m, Seed: opt.Seed + uint64(i), Weighted: weighted, RigidFraction: 1,
		})
		lb := lowerbound.SumWeightedCompletion(jobs, m)
		s, shelves, err := smart.Schedule(jobs, m, smart.FirstFit)
		if err != nil {
			return nil, err
		}
		list, err := rigid.List(jobs, nil, m, rigid.ByRelease)
		if err != nil {
			return nil, err
		}
		bound := smart.RatioUnweighted
		if weighted {
			bound = smart.RatioWeighted
		}
		return []any{m, n, weighted,
			s.SumWeightedCompletion() / lb,
			list.SumWeightedCompletion() / lb,
			shelves,
			bound}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// bicriteriaRun is experiment T4 (§4.4): the doubling algorithm's two
// ratios versus 4ρ, contrasted with pure MRT (good Cmax, unmanaged
// ΣwC). Params: "m", "ns" (per-family job counts), "eps".
func bicriteriaRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(2,
		title(spec, "T4 — §4.4 bi-criteria doubling: both ratios bounded by 4ρ = 6"),
		"family", "n", "doubling Cmax", "doubling ΣwC", "MRT Cmax", "MRT ΣwC", "bound")
	type cell struct {
		parallel bool
		n0       int
	}
	var cells []cell
	for _, parallel := range []bool{false, true} {
		for _, n0 := range spec.Ints("ns", []int{100, 500}) {
			cells = append(cells, cell{parallel, n0})
		}
	}
	m := spec.Int("m", 64)
	eps := spec.Float("eps", 0.01)
	if err := runRowCells(t, opt, len(cells), func(i int) ([]any, error) {
		parallel := cells[i].parallel
		family := "non-parallel"
		if parallel {
			family = "parallel"
		}
		n := scaled(opt.Scale, cells[i].n0)
		cfg := workload.GenConfig{N: n, M: m, Seed: opt.Seed + uint64(i), Weighted: true}
		var jobs []*workload.Job
		if parallel {
			jobs = workload.Parallel(cfg)
		} else {
			jobs = workload.Sequential(cfg)
		}
		costs := workload.Costs(jobs, m)
		res, err := bicriteria.ScheduleOf(costs, m, bicriteria.Options{})
		if err != nil {
			return nil, err
		}
		// No job has a release date, so res.CmaxLB (lowerbound.CmaxOf) is
		// the dual bound bit for bit: each release term 0 + minTime is at
		// most the dual's critical-job floor.
		cmaxLB, wcLB := res.CmaxLB, res.WCLB
		mrt, err := moldable.MRTOf(costs, m, cmaxLB, eps)
		if err != nil {
			return nil, err
		}
		return []any{family, n,
			res.CmaxRatio(), res.WCRatio(),
			mrt.Schedule.Makespan() / cmaxLB,
			mrt.Schedule.SumWeightedCompletion() / wcLB,
			bicriteria.TheoreticalRatio(moldable.Rho)}, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// fig2Run regenerates both series of Figure 2 (the two series run as
// independent cells) and renders them through the bespoke figure
// writer: it has no table form. Params: "m" (platform width), "reps"
// (replications per point), "ns" (full-scale axis) and "quick_ns" (the
// axis when JobFactor > 1); Validate holds each of them, and every task
// count of either axis, to at least 1 before a cell runs. A cell
// generates its series' next instance on a second goroutine while
// it schedules the current one (bicriteria.Fig2Series).
func fig2Run(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	m := spec.Int("m", 100)
	reps := spec.Int("reps", 3)
	ns := spec.Ints("ns", bicriteria.DefaultNs())
	if opt.Scale.JobFactor > 1 {
		ns = spec.Ints("quick_ns", []int{10, 50, 100, 200})
	}
	series, err := runCells(opt, 2, func(i int) ([]bicriteria.Fig2Point, error) {
		return bicriteria.Fig2Series(bicriteria.Fig2Config{
			M: m, Ns: ns, Seed: opt.Seed + uint64(i), Reps: reps, Parallel: i == 1,
		})
	})
	if err != nil {
		return nil, err
	}
	return scenario.CustomResult(func(w io.Writer) error {
		bicriteria.WriteFig2(w, m, series[0], series[1])
		return nil
	}), nil
}

// mixedRun is experiment T8 (§5.1): the three strategies for mixing
// rigid and moldable jobs on one cluster. Params: "m", "n", "fracs".
func mixedRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	t := newTable(3,
		title(spec, "T8 — §5.1 rigid+moldable mixes: the three proposed strategies (Cmax/ΣwC ratios to lower bounds)"),
		"rigid frac", "n", "strategy", "Cmax ratio", "ΣwC ratio")
	m := spec.Int("m", 64)
	fracs := spec.Floats("fracs", []float64{0.3, 0.7})
	if err := runMultiRowCells(t, opt, len(fracs), func(i int) ([][]any, error) {
		frac := fracs[i]
		n := scaled(opt.Scale, spec.Int("n", 200))
		jobs := workload.Mixed(workload.GenConfig{
			N: n, M: m, Seed: opt.Seed + uint64(i), Weighted: true, RigidFraction: frac,
		})
		costs := workload.Costs(jobs, m)
		cmaxLB := lowerbound.CmaxDualOf(costs, m)
		wcLB := lowerbound.SumWeightedCompletionOf(costs, m)
		var out [][]any
		for _, strat := range []string{"A: phases", "B: a-priori allot", "C: bicriteria batches"} {
			s, err := runMixedStrategy(strat, jobs, costs, m, cmaxLB)
			if err != nil {
				return nil, err
			}
			if err := s.ValidateWith(sched.ValidateOptions{IgnoreReleases: true}); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", strat, err)
			}
			rep := s.Report()
			out = append(out, []any{frac, n, strat, rep.Makespan / cmaxLB, rep.SumWeightedCompletion / wcLB})
		}
		return out, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}

// runMixedStrategy implements §5.1's three ideas over the jobs, their
// cost summaries on m processors and their dual bound lb.
func runMixedStrategy(strat string, jobs []*workload.Job, costs []workload.Cost, m int, lb float64) (*sched.Schedule, error) {
	switch strat[:1] {
	case "A":
		// Separate: rigid jobs first (conservative packing), moldable
		// after, shifted past the rigid phase.
		var rigids, molds []*workload.Job
		for _, j := range jobs {
			if j.Kind == workload.Rigid {
				rigids = append(rigids, j)
			} else {
				molds = append(molds, j)
			}
		}
		s := sched.New(m)
		phaseEnd := 0.0
		if len(rigids) > 0 {
			rs, err := rigid.List(rigids, nil, m, rigid.ByLPT)
			if err != nil {
				return nil, err
			}
			if err := s.Merge(rs); err != nil {
				return nil, err
			}
			phaseEnd = rs.Makespan()
		}
		if len(molds) > 0 {
			res, err := moldable.MRT(molds, m, 0.01)
			if err != nil {
				return nil, err
			}
			if err := s.Merge(res.Schedule.Shift(phaseEnd)); err != nil {
				return nil, err
			}
		}
		return s, nil
	case "B":
		// A-priori allotment: pin every moldable job at its γ(LB)
		// allocation, then one rigid scheduling pass over everything.
		return moldable.GammaListOf(costs, m, lb)
	default:
		// C: the bi-criteria batch algorithm handles rigid jobs natively
		// (a rigid job is a moldable job with a single allocation) —
		// "schedule each rigid job in the first batch in which it fits".
		res, err := bicriteria.ScheduleOf(costs, m, bicriteria.Options{})
		if err != nil {
			return nil, err
		}
		return res.Schedule, nil
	}
}
