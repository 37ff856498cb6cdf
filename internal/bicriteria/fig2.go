package bicriteria

import (
	"fmt"
	"io"

	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig2Point is one point of the Figure 2 curves: the two criterion ratios
// measured for a workload of N tasks.
type Fig2Point struct {
	N         int
	CmaxRatio float64
	WCRatio   float64
}

// Fig2Config parameterizes the Figure 2 reproduction. The paper's setting
// is a cluster of 100 machines, task counts up to 1000, two workload
// families ("Non Parallel" and "Parallel") and the two criteria Cmax and
// ΣωiCi.
type Fig2Config struct {
	M    int   // platform width (paper: 100; 0 picks 100)
	Ns   []int // task counts, each ≥ 1 (paper: 0..1000; empty picks DefaultNs)
	Seed uint64
	Reps int // replications averaged per point (0 picks 3)
	// Parallel selects the moldable-parallel workload family; false
	// selects the sequential ("Non Parallel") family.
	Parallel bool
}

// DefaultNs returns the task-count sweep of Figure 2.
func DefaultNs() []int {
	return []int{10, 25, 50, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
}

// Fig2Series runs the bi-criteria algorithm over the task-count sweep and
// returns the measured ratio curves. A zero M or Reps takes its default;
// a negative M or Reps, or a task count below 1, is an error.
//
// An instance is the workload of one (n, rep) pair of the sweep. Every
// instance seed is drawn from the series RNG, in (n, rep) order, before
// any instance is built, and building one is a pure function of its seed.
// So a second goroutine (workload.Ahead) generates instance k+1 while the
// caller schedules instance k, and the result is the same as generating
// each in turn. The generator runs at most one instance ahead and has
// exited when Fig2Series returns. A panic while generating is raised
// again on the caller's goroutine, at the instance that panicked.
func Fig2Series(cfg Fig2Config) ([]Fig2Point, error) {
	if cfg.M < 0 {
		return nil, fmt.Errorf("bicriteria: fig2 on %d machines", cfg.M)
	}
	if cfg.Reps < 0 {
		return nil, fmt.Errorf("bicriteria: fig2 with %d replications", cfg.Reps)
	}
	if cfg.M == 0 {
		cfg.M = 100
	}
	if len(cfg.Ns) == 0 {
		cfg.Ns = DefaultNs()
	}
	if cfg.Reps == 0 {
		cfg.Reps = 3
	}
	gens := make([]workload.GenConfig, 0, len(cfg.Ns)*cfg.Reps)
	rng := stats.NewRNG(cfg.Seed)
	for _, n := range cfg.Ns {
		if n < 1 {
			return nil, fmt.Errorf("bicriteria: fig2 task count %d is below 1", n)
		}
		for rep := 0; rep < cfg.Reps; rep++ {
			gens = append(gens, workload.GenConfig{N: n, M: cfg.M, Seed: rng.Uint64(), Weighted: true})
		}
	}
	ahead := workload.NewAhead(func() ([]*workload.Job, bool) {
		if len(gens) == 0 {
			return nil, false
		}
		gen := gens[0]
		gens = gens[1:]
		return fig2Generate(gen, cfg.Parallel), true
	}, 1)
	defer ahead.Stop()
	points := make([]Fig2Point, 0, len(cfg.Ns))
	for _, n := range cfg.Ns {
		var cmaxSum, wcSum float64
		for rep := 0; rep < cfg.Reps; rep++ {
			jobs, _ := ahead.Next()
			res, err := Schedule(jobs, cfg.M, Options{})
			if err != nil {
				return nil, fmt.Errorf("bicriteria: fig2 n=%d rep=%d: %w", n, rep, err)
			}
			cmaxSum += res.CmaxRatio()
			wcSum += res.WCRatio()
		}
		points = append(points, Fig2Point{
			N:         n,
			CmaxRatio: cmaxSum / float64(cfg.Reps),
			WCRatio:   wcSum / float64(cfg.Reps),
		})
	}
	return points, nil
}

// fig2Generate builds one instance of the sweep. Tests replace it to make
// generation fail.
var fig2Generate = func(gen workload.GenConfig, parallel bool) []*workload.Job {
	if parallel {
		return workload.Parallel(gen)
	}
	return workload.Sequential(gen)
}

// WriteFig2 renders both panels of Figure 2 (WiCi ratio and Cmax ratio vs
// number of tasks) on an m-machine cluster as aligned text tables, one
// row per task count.
func WriteFig2(w io.Writer, m int, nonParallel, parallel []Fig2Point) {
	fmt.Fprintf(w, "Figure 2 — bi-criteria algorithm on a %d-machine cluster\n", m)
	fmt.Fprintln(w, "(ratios to lower bounds; paper reports ratios to optimum estimates)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%8s  %22s  %22s\n", "", "WiCi ratio", "Cmax ratio")
	fmt.Fprintf(w, "%8s  %11s %10s  %11s %10s\n",
		"n tasks", "NonParallel", "Parallel", "NonParallel", "Parallel")
	for i := range nonParallel {
		var pWC, pCmax float64
		if i < len(parallel) {
			pWC, pCmax = parallel[i].WCRatio, parallel[i].CmaxRatio
		}
		fmt.Fprintf(w, "%8d  %11.3f %10.3f  %11.3f %10.3f\n",
			nonParallel[i].N, nonParallel[i].WCRatio, pWC,
			nonParallel[i].CmaxRatio, pCmax)
	}
}
