package experiments

import (
	"fmt"

	"repro/internal/lowerbound"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// genConfig merges a declarative workload over a kind's defaults:
// non-zero Spec fields win, absent ones keep the paper's values (zero
// is "absent" in the JSON encoding). Numeric fields whose zero is
// meaningful against a non-zero kind default take -1 as the
// explicit-zero sentinel: arrival_rate: -1 means an offline stream
// (all jobs released at t=0), rigid_fraction: -1 means fully moldable,
// max_procs_cap: -1 means uncapped. Weighted needs no sentinel: no
// kind defaults it on, so "weighted": true/absent covers both states.
// It returns the generator name and the merged GenConfig (Seed and the
// scaled N still come from the kind).
func genConfig(w *scenario.Workload, def workload.GenConfig) (string, workload.GenConfig) {
	gen := "parallel"
	if w == nil {
		return gen, def
	}
	if w.Generator != "" {
		gen = w.Generator
	}
	if w.N != 0 {
		def.N = w.N
	}
	if w.M != 0 {
		def.M = w.M
	}
	if w.ArrivalRate < 0 {
		def.ArrivalRate = 0
	} else if w.ArrivalRate != 0 {
		def.ArrivalRate = w.ArrivalRate
	}
	if w.Weighted {
		def.Weighted = true
	}
	if w.RigidFraction < 0 {
		def.RigidFraction = 0
	} else if w.RigidFraction != 0 {
		def.RigidFraction = w.RigidFraction
	}
	if w.MaxProcsCap < 0 {
		def.MaxProcsCap = 0
	} else if w.MaxProcsCap != 0 {
		def.MaxProcsCap = w.MaxProcsCap
	}
	if w.SeqMu != 0 {
		def.SeqMu = w.SeqMu
	}
	if w.SeqSigma != 0 {
		def.SeqSigma = w.SeqSigma
	}
	if w.DueDateSlack != 0 {
		def.DueDateSlack = w.DueDateSlack
	}
	return gen, def
}

// resolvePolicies resolves a policy name list against the registry,
// requiring the online or offline capability. An empty list means
// every capable policy, in catalog order.
func resolvePolicies(names []string, needOnline bool) ([]*registry.Entry, error) {
	capable := func(e *registry.Entry) bool {
		if needOnline {
			return e.Caps.Online
		}
		return e.Caps.Offline
	}
	mode := "offline"
	if needOnline {
		mode = "online"
	}
	if len(names) == 0 {
		var out []*registry.Entry
		for _, e := range registry.All() {
			if capable(e) {
				out = append(out, e)
			}
		}
		return out, nil
	}
	out := make([]*registry.Entry, 0, len(names))
	for _, name := range names {
		e, err := registry.Get(name)
		if err != nil {
			return nil, err
		}
		if !capable(e) {
			return nil, fmt.Errorf("experiments: policy %q is not %s-capable", name, mode)
		}
		out = append(out, e)
	}
	return out, nil
}

// generate materializes a job stream from a generator name.
func generate(gen string, cfg workload.GenConfig) ([]*workload.Job, error) {
	switch gen {
	case "", "parallel":
		return workload.Parallel(cfg), nil
	case "sequential":
		return workload.Sequential(cfg), nil
	case "mixed":
		return workload.Mixed(cfg), nil
	}
	return nil, fmt.Errorf("experiments: generator %q is not usable here (want parallel|sequential|mixed)", gen)
}

// generateSource is the streaming counterpart of generate: same
// generator names but a pull-based Source (plus "communities", the
// CIMENT mix). Draw order matches the materializing generators, so
// workload.Collect over the returned source equals generate — a spec
// moved from a batch kind to the replay kind sees the same jobs.
func generateSource(gen string, cfg workload.GenConfig) (workload.Source, error) {
	switch gen {
	case "", "parallel":
		return workload.ParallelSource(cfg), nil
	case "sequential":
		return workload.SequentialSource(cfg), nil
	case "mixed":
		return workload.MixedSource(cfg), nil
	case "communities":
		return workload.CommunitiesSource(workload.CIMENTCommunities(), cfg.N, cfg.M, cfg.ArrivalRate, cfg.Seed), nil
	}
	return nil, fmt.Errorf("experiments: generator %q is not streamable here (want parallel|sequential|mixed|communities)", gen)
}

// metricColumn is one selectable output column of the "offline" kind.
type metricColumn struct {
	header string
	value  func(rep metrics.Report, cmaxLB, wcLB float64) any
}

var metricColumns = map[string]metricColumn{
	"cmax":         {"Cmax", func(r metrics.Report, _, _ float64) any { return r.Makespan }},
	"cmax_ratio":   {"Cmax ratio", func(r metrics.Report, lb, _ float64) any { return r.Makespan / lb }},
	"swc":          {"ΣwC", func(r metrics.Report, _, _ float64) any { return r.SumWeightedCompletion }},
	"swc_ratio":    {"ΣwC ratio", func(r metrics.Report, _, lb float64) any { return r.SumWeightedCompletion / lb }},
	"mean_flow":    {"mean flow", func(r metrics.Report, _, _ float64) any { return r.MeanFlow }},
	"max_flow":     {"max flow", func(r metrics.Report, _, _ float64) any { return r.MaxFlow }},
	"mean_stretch": {"mean stretch", func(r metrics.Report, _, _ float64) any { return r.MeanStretch }},
	"max_stretch":  {"max stretch", func(r metrics.Report, _, _ float64) any { return r.MaxStretch }},
	"late":         {"late", func(r metrics.Report, _, _ float64) any { return r.LateCount }},
	"util":         {"util %", func(r metrics.Report, _, _ float64) any { return 100 * r.Utilization }},
}

// MetricNames returns the selectable metric column names of the
// generic "offline" kind (for docs and error messages).
func MetricNames() []string {
	return []string{"cmax", "cmax_ratio", "swc", "swc_ratio",
		"mean_flow", "max_flow", "mean_stretch", "max_stretch", "late", "util"}
}

// offlineRun is the generic "offline" kind: one declarative workload,
// any set of offline-capable registry policies, any selection of §3
// metric columns. It is the fully JSON-composable path — a scenario
// file names a workload shape, a policy list and a metric list, and
// gets a comparison table without any new Go code.
//
// Spec surface: Workload, Platform.M (falls back to Workload.M),
// Policies (default: every offline-capable policy), Metrics (default:
// cmax_ratio, swc_ratio, mean_flow, max_stretch, late, util).
func offlineRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	gen, cfg := genConfig(spec.Workload, workload.GenConfig{N: 200, M: 64})
	m := cfg.M
	if spec.Platform != nil && spec.Platform.M != 0 {
		m = spec.Platform.M
	}
	entries, err := resolvePolicies(spec.Policies, false)
	if err != nil {
		return nil, err
	}
	sel := spec.Metrics
	if len(sel) == 0 {
		sel = []string{"cmax_ratio", "swc_ratio", "mean_flow", "max_stretch", "late", "util"}
	}
	cols := make([]metricColumn, 0, len(sel))
	headers := []string{"policy"}
	for _, name := range sel {
		c, ok := metricColumns[name]
		if !ok {
			return nil, fmt.Errorf("experiments: unknown metric %q (have: %v)", name, MetricNames())
		}
		cols = append(cols, c)
		headers = append(headers, c.header)
	}
	t := newTable(1, title(spec, fmt.Sprintf("offline policy sweep (m=%d, n=%d)", m, scaled(opt.Scale, cfg.N))), headers...)
	cfg.N, cfg.Seed = scaled(opt.Scale, cfg.N), opt.Seed
	jobs, err := generate(gen, cfg)
	if err != nil {
		return nil, err
	}
	costs := workload.Costs(jobs, m)
	cmaxLB := lowerbound.CmaxDualOf(costs, m)
	wcLB := lowerbound.SumWeightedCompletionOf(costs, m)
	if err := runRowCells(t, opt, len(entries), func(i int) ([]any, error) {
		// Policy cells share the workload read-only (jobs are pure data).
		s, err := entries[i].Offline(jobs, m)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", entries[i].Name, err)
		}
		rep := s.Report()
		row := []any{entries[i].Name}
		for _, c := range cols {
			row = append(row, c.value(rep, cmaxLB, wcLB))
		}
		return row, nil
	}); err != nil {
		return nil, err
	}
	return t.Result(), nil
}
