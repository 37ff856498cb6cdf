package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/lowerbound"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// onlineRun is the generic "online" kind: every named online-capable
// policy of the internal/registry catalog head-to-head on the same
// arrival streams, scored with the §3 criteria. Rows are grouped by
// arrival rate; the job stream is identical across policies for a
// fixed seed, so differences are purely the policy's.
//
// Spec surface: Workload (generator/N/M/rigid fraction/...), Policies
// (default: the whole online catalog), params "rates" (the arrival-rate
// axis; alternatively workload.arrival_rate pins a single rate — setting
// both is an error) and "kill" ("newest"|"largest"). The built-in
// "policies" Spec (T14) is an instance of this kind with the paper
// defaults.
func onlineRun(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
	headers := []string{"rate", "n", "policy", "Cmax ratio", "mean flow", "max flow", "mean stretch", "util%"}
	if spec.Faults != nil {
		// The fault columns appear only when a plan is set, so the
		// healthy table (and its goldens) keeps its historical shape.
		headers = append(headers, "crashes", "requeues", "lost work")
	}
	t := newTable(3,
		title(spec, "T14 — online policy catalog (registry): §3 criteria per queue policy on shared arrival streams"),
		headers...)
	gen, cfg := genConfig(spec.Workload, workload.GenConfig{N: 300, M: 64, RigidFraction: 0.5})
	rates := spec.Floats("rates", nil)
	if spec.Workload != nil && spec.Workload.ArrivalRate != 0 {
		if rates != nil {
			return nil, fmt.Errorf("experiments: online kind: set workload.arrival_rate or params.rates, not both")
		}
		rates = []float64{cfg.ArrivalRate} // -1 sentinel already resolved to 0
	}
	if rates == nil {
		rates = []float64{0.05, 0.2}
	}
	entries, err := resolvePolicies(spec.Policies, true)
	if err != nil {
		return nil, err
	}
	kill, err := cluster.ParseKillPolicy(spec.String("kill", "newest"))
	if err != nil {
		return nil, err
	}
	tc := newTraceCollector(spec, len(rates))
	if err := runMultiRowCells(t, opt, len(rates), func(i int) ([][]any, error) {
		rate := rates[i]
		c := cfg
		c.N, c.Seed, c.ArrivalRate = scaled(opt.Scale, cfg.N), opt.Seed+uint64(i), rate
		jobs, err := generate(gen, c)
		if err != nil {
			return nil, err
		}
		cmaxLB := lowerbound.Cmax(jobs, c.M)
		var out [][]any
		for _, e := range entries {
			sim, err := cluster.New(des.New(), c.M, 1, e.NewPolicy(), kill)
			if err != nil {
				return nil, err
			}
			if spec.Faults != nil {
				fp := *spec.Faults
				fp.Partitions = nil
				fp.Seed ^= opt.Seed + uint64(i)
				if _, err := faults.Attach(sim, fp); err != nil {
					return nil, err
				}
			}
			rec := tc.recorder()
			rec.Attach(sim, "")
			for _, j := range jobs {
				if err := sim.Submit(j); err != nil {
					return nil, err
				}
			}
			if err := sim.Run(); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", e.Name, err)
			}
			tc.add(i, e.Name, rec)
			rep := sim.Report()
			row := []any{
				rate, c.N, e.Name, rep.Makespan / cmaxLB,
				rep.MeanFlow, rep.MaxFlow, rep.MeanStretch, 100 * rep.Utilization,
			}
			if spec.Faults != nil {
				fs := rep.Faults
				row = append(row, fs.Crashes, fs.Requeues, fs.LostWork)
			}
			out = append(out, row)
		}
		return out, nil
	}); err != nil {
		return nil, err
	}
	res := t.Result()
	tc.install(res)
	return res, nil
}
