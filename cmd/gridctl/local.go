package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/lowerbound"
	"repro/internal/registry"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file holds the subcommands that run in-process: they never
// contact a daemon and -timeout does not apply to them.

// localCmd runs scenarios in-process — a catalog id, "all",
// "ablations" or a spec file — and writes each result followed by a
// blank line. Tables are bit-identical with and without -workers.
func localCmd(w io.Writer, args []string) error {
	req, format, _, err := buildRequest("local", args)
	if err != nil {
		return err
	}
	specs, err := localSpecs(req)
	if err != nil {
		return err
	}
	for _, s := range specs {
		res, err := scenario.Run(s, req.Options(s))
		if err == nil {
			err = res.EmitFormat(w, format)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// localSpecs expands a request into the specs local runs, in catalog
// order for "all" and "ablations".
func localSpecs(req scenario.HTTPRequest) ([]*scenario.Spec, error) {
	if req.Spec != nil {
		return []*scenario.Spec{req.Spec}, nil
	}
	switch req.ID {
	case "all":
		return scenario.Catalog(), nil
	case "ablations":
		var specs []*scenario.Spec
		for _, s := range scenario.Catalog() {
			if s.Group == scenario.GroupAblation {
				specs = append(specs, s)
			}
		}
		return specs, nil
	}
	if s, ok := scenario.Lookup(req.ID); ok {
		return []*scenario.Spec{s}, nil
	}
	return nil, fmt.Errorf("unknown scenario %q (see gridctl scenarios)", req.ID)
}

// writePolicies prints the local queue-policy catalog and the grid
// routing-policy catalog with their capability flags.
func writePolicies(w io.Writer) error {
	fmt.Fprintln(w, "local queue policies:")
	if err := registry.WriteCatalog(w); err != nil {
		return err
	}
	fmt.Fprintln(w, "\ngrid routing policies (topology \"grid_policy\"):")
	return registry.WriteGridCatalog(w)
}

// simCmd is the one-schedule quick look: it runs a single policy on a
// generated or SWF workload and prints the §3 criteria report,
// optionally with an ASCII Gantt chart and the schedule as CSV.
func simCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	var (
		policy   = fs.String("policy", "mrt", "policy name (see gridctl policies)")
		n        = fs.Int("n", 100, "number of jobs")
		m        = fs.Int("m", 64, "processors")
		seed     = fs.Uint64("seed", 42, "workload seed")
		rate     = fs.Float64("rate", 0, "Poisson arrival rate (0 = offline)")
		weighted = fs.Bool("weighted", false, "draw job weights")
		rigidF   = fs.Float64("rigidfrac", 0, "fraction of rigid jobs (1 = all rigid)")
		online   = fs.Bool("online", false, "force the event-driven online mode for dual-capability policies")
		gantt    = fs.Bool("gantt", false, "print an ASCII Gantt chart")
		csvOut   = fs.Bool("csv", false, "dump the schedule as CSV")
		swf      = fs.String("swf", "", "read the workload from an SWF-style trace file instead of generating one")
	)
	_ = fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("sim takes flags only")
	}
	var jobs []*workload.Job
	if *swf != "" {
		f, err := os.Open(*swf)
		if err != nil {
			return err
		}
		jobs, err = trace.ReadSWF(f)
		f.Close()
		if err != nil {
			return err
		}
		*n = len(jobs)
	} else {
		jobs = workload.Parallel(workload.GenConfig{
			N: *n, M: *m, Seed: *seed, ArrivalRate: *rate,
			Weighted: *weighted, RigidFraction: *rigidF,
		})
	}
	s, err := runPolicy(*policy, jobs, *m, *online)
	if err != nil {
		return err
	}
	rep := s.Report()
	cmaxLB := lowerbound.Cmax(jobs, *m)
	wcLB := lowerbound.SumWeightedCompletion(jobs, *m)
	fmt.Fprintf(w, "policy=%s n=%d m=%d rate=%g\n", *policy, *n, *m, *rate)
	fmt.Fprintf(w, "  Cmax      %12.4g  (%.3fx LB)\n", rep.Makespan, rep.Makespan/cmaxLB)
	fmt.Fprintf(w, "  ΣC        %12.4g\n", rep.SumCompletion)
	fmt.Fprintf(w, "  ΣwC       %12.4g  (%.3fx LB)\n", rep.SumWeightedCompletion, rep.SumWeightedCompletion/wcLB)
	fmt.Fprintf(w, "  mean flow %12.4g\n", rep.MeanFlow)
	fmt.Fprintf(w, "  max flow  %12.4g\n", rep.MaxFlow)
	fmt.Fprintf(w, "  util      %11.1f%%\n", 100*rep.Utilization)
	if *gantt {
		fmt.Fprintln(w)
		if err := trace.Gantt(w, s, 100); err != nil {
			return fmt.Errorf("gantt: %w", err)
		}
	}
	if *csvOut {
		if err := trace.WriteCSV(w, s); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
	}
	return nil
}

// runPolicy resolves the policy in the registry and runs it: offline
// policies build the schedule directly; online policies (or dual-mode
// ones with -online) run through the event-driven cluster simulator.
func runPolicy(name string, jobs []*workload.Job, m int, online bool) (*sched.Schedule, error) {
	entry, err := registry.Get(name)
	if err != nil {
		return nil, err
	}
	if online && !entry.Caps.Online {
		return nil, fmt.Errorf("policy %q is offline-only; -online does not apply", name)
	}
	if entry.Caps.Offline && !(online && entry.Caps.Online) {
		return entry.Offline(jobs, m)
	}
	sim, err := cluster.New(des.New(), m, 1, entry.NewPolicy(), cluster.KillNewest)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if err := sim.Submit(j); err != nil {
			return nil, err
		}
	}
	if err := sim.Run(); err != nil {
		return nil, err
	}
	s := sched.New(m)
	for _, c := range sim.Completions() {
		s.Add(sched.Alloc{Job: c.Job, Start: c.Start, Procs: c.Procs})
	}
	return s, nil
}
