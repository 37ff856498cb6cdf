package experiments

import (
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replayRun is the "replay" kind: every named online-capable policy on
// one streamed workload — jobs admitted lazily through workload.Source
// as their release times come due, metrics folded by the O(1)
// accumulator, completion history bounded by the retention policy. The
// table is identical to what a materialized run would produce; what
// changes is peak memory, which stays O(active jobs) however long the
// stream is. That makes this the kind that replays multi-million-job
// SWF archives (params.swf) without holding the trace in memory.
//
// Spec surface: Workload (synthetic stream shape when no file is
// given; generator parallel|sequential|mixed|communities), Policies
// (default: the whole online catalog), params "swf" (path to an SWF
// trace streamed instead of a generator), "retain"
// ("none"|"ring"|"full", default "none"), "ring" (tail capacity for
// retain=ring, default 1024) and "kill" ("newest"|"largest").
func replayRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	gen, cfg := genConfig(spec.Workload, workload.GenConfig{N: 2000, M: 64, ArrivalRate: 2, RigidFraction: 0.5})
	m := cfg.M
	if spec.Platform != nil && spec.Platform.M != 0 {
		m = spec.Platform.M
	}
	entries, err := resolvePolicies(spec.Policies, true)
	if err != nil {
		return nil, err
	}
	kill, err := cluster.ParseKillPolicy(spec.String("kill", "newest"))
	if err != nil {
		return nil, err
	}
	swf := spec.String("swf", "")
	retain := spec.String("retain", "none")
	ringCap := spec.Int("ring", 1024)
	switch retain {
	case "none", "ring", "full":
	default:
		return nil, fmt.Errorf("experiments: replay kind: unknown retain %q (none|ring|full)", retain)
	}
	cfg.N, cfg.Seed = scaled(opt.Scale, cfg.N), opt.Seed
	src := fmt.Sprintf("%s stream, n=%d", gen, cfg.N)
	if swf != "" {
		src = "swf " + swf
	}
	t := newTable(1,
		title(spec, fmt.Sprintf("EXT5 — streaming replay (%s, m=%d, retain=%s): lazy admission, O(1) metrics", src, m, retain)),
		"policy", "jobs", "Cmax", "mean flow", "max stretch", "util %")
	tc := newTraceCollector(spec, len(entries))
	if err := runRowCells(t, opt, len(entries), func(i int) ([]any, error) {
		e := entries[i]
		// Each policy cell streams its own copy of the workload: a fresh
		// generator (same seed → same jobs) or a fresh file handle.
		var source workload.Source
		if swf != "" {
			f, err := os.Open(swf)
			if err != nil {
				return nil, fmt.Errorf("experiments: replay: %w", err)
			}
			defer f.Close()
			source = trace.NewSWFJobSource(f)
		} else {
			var err error
			if source, err = generateSource(gen, cfg); err != nil {
				return nil, err
			}
		}
		sim, err := cluster.New(des.New(), m, 1, e.NewPolicy(), kill)
		if err != nil {
			return nil, err
		}
		switch retain {
		case "none":
			err = sim.SetRetention(metrics.NewDiscard())
		case "ring":
			err = sim.SetRetention(metrics.NewRing(ringCap))
		}
		if err != nil {
			return nil, err
		}
		rec := tc.recorder()
		rec.Attach(sim, "")
		if err := sim.Stream(source); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
		if err := sim.Run(); err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
		}
		tc.add(i, e.Name, rec)
		rep := sim.Report()
		return []any{
			e.Name, sim.CompletedCount(), rep.Makespan,
			rep.MeanFlow, rep.MaxStretch, 100 * rep.Utilization,
		}, nil
	}); err != nil {
		return nil, err
	}
	res := t.Result()
	tc.install(res)
	return res, nil
}
