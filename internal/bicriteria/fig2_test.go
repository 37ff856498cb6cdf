package bicriteria_test

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bicriteria"
	_ "repro/internal/experiments" // registers the fig2 kind
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fig2Reference is Fig2Series as it was before instances were generated
// ahead: each instance is generated, then scheduled, in turn.
func fig2Reference(cfg bicriteria.Fig2Config) ([]bicriteria.Fig2Point, error) {
	if cfg.M == 0 {
		cfg.M = 100
	}
	if len(cfg.Ns) == 0 {
		cfg.Ns = bicriteria.DefaultNs()
	}
	if cfg.Reps == 0 {
		cfg.Reps = 3
	}
	points := make([]bicriteria.Fig2Point, 0, len(cfg.Ns))
	rng := stats.NewRNG(cfg.Seed)
	for _, n := range cfg.Ns {
		var cmaxSum, wcSum float64
		for rep := 0; rep < cfg.Reps; rep++ {
			gen := workload.GenConfig{
				N: n, M: cfg.M, Seed: rng.Uint64(), Weighted: true,
			}
			var jobs []*workload.Job
			if cfg.Parallel {
				jobs = workload.Parallel(gen)
			} else {
				jobs = workload.Sequential(gen)
			}
			res, err := bicriteria.Schedule(jobs, cfg.M, bicriteria.Options{})
			if err != nil {
				return nil, err
			}
			cmaxSum += res.CmaxRatio()
			wcSum += res.Schedule.Report().SumWeightedCompletion / res.WCLB
		}
		points = append(points, bicriteria.Fig2Point{
			N:         n,
			CmaxRatio: cmaxSum / float64(cfg.Reps),
			WCRatio:   wcSum / float64(cfg.Reps),
		})
	}
	return points, nil
}

// TestFig2SeriesMatchesSequentialReference: generating ahead on a second
// goroutine changes no bit of either curve.
func TestFig2SeriesMatchesSequentialReference(t *testing.T) {
	for _, cfg := range []bicriteria.Fig2Config{
		{M: 24, Ns: []int{37}, Seed: 5, Reps: 1},
		{M: 24, Ns: []int{37}, Seed: 6, Reps: 3},
		{M: 32, Seed: 7}, // the default sweep and replication count
	} {
		for _, parallel := range []bool{false, true} {
			cfg.Parallel = parallel
			got, err := bicriteria.Fig2Series(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fig2Reference(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%+v: %d points, reference %d", cfg, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if g.N != w.N || math.Float64bits(g.CmaxRatio) != math.Float64bits(w.CmaxRatio) ||
					math.Float64bits(g.WCRatio) != math.Float64bits(w.WCRatio) {
					t.Fatalf("%+v: point %d is %+v, reference %+v", cfg, i, g, w)
				}
			}
		}
	}
}

// TestFig2SeriesRefusesOutOfRangeConfig: negative widths and replication
// counts and task counts below 1 are errors; zero M and Reps take their
// defaults.
func TestFig2SeriesRefusesOutOfRangeConfig(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		for _, tc := range []struct {
			cfg  bicriteria.Fig2Config
			want string
		}{
			{bicriteria.Fig2Config{M: -1, Ns: []int{10}}, "bicriteria: fig2 on -1 machines"},
			{bicriteria.Fig2Config{M: 8, Ns: []int{10}, Reps: -2}, "bicriteria: fig2 with -2 replications"},
			{bicriteria.Fig2Config{M: 8, Ns: []int{10, 0}}, "bicriteria: fig2 task count 0 is below 1"},
			{bicriteria.Fig2Config{M: 8, Ns: []int{-3}}, "bicriteria: fig2 task count -3 is below 1"},
		} {
			tc.cfg.Parallel = parallel
			pts, err := bicriteria.Fig2Series(tc.cfg)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%+v: points %v, error %v, want %q", tc.cfg, pts, err, tc.want)
			}
		}
		pts, err := bicriteria.Fig2Series(bicriteria.Fig2Config{Ns: []int{10}, Seed: 2, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		want, err := fig2Reference(bicriteria.Fig2Config{M: 100, Ns: []int{10}, Seed: 2, Reps: 3, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		if pts[0] != want[0] {
			t.Fatalf("zero M and Reps: %+v, want the 100-machine, 3-replication point %+v", pts[0], want[0])
		}
	}
}

// settleGoroutines waits until the goroutine count is back to before:
// a helper that has handed over its last instance only has to return.
// Fewer is fine: a goroutine of the previous test may still have been
// exiting when before was counted.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Fig2Series, %d before", n, before)
	}
}

// TestFig2ScheduleErrorStopsGenerator: when scheduling an instance fails
// mid-series, Fig2Series returns that error only once the generator,
// busy with the next instance, has finished it and exited. The counters
// are unsynchronized on purpose: under -race, reading them while the
// generator still runs fails the test.
func TestFig2ScheduleErrorStopsGenerator(t *testing.T) {
	const m = 16
	var started, finished int
	bicriteria.SetFig2Generate(t, func(cfg workload.GenConfig, parallel bool) []*workload.Job {
		started++
		jobs := workload.Parallel(cfg)
		switch started {
		case 2: // one job wider than the platform
			jobs = append(jobs, &workload.Job{
				ID: len(jobs), Kind: workload.Rigid, Weight: 1, DueDate: -1,
				SeqTime: 10, MinProcs: m + 1, MaxProcs: m + 1, Model: workload.Linear{},
			})
		case 3: // still being built when scheduling instance 2 fails
			time.Sleep(20 * time.Millisecond)
		}
		finished++
		return jobs
	})
	before := runtime.NumGoroutine()
	_, err := bicriteria.Fig2Series(bicriteria.Fig2Config{M: m, Ns: []int{8, 9}, Seed: 1, Reps: 2, Parallel: true})
	want := "bicriteria: fig2 n=8 rep=1: bicriteria: job 8 cannot run on 16 processors"
	if err == nil || err.Error() != want {
		t.Fatalf("Fig2Series = %v, want %s", err, want)
	}
	if started != 3 || finished != 3 {
		t.Fatalf("%d instances started and %d finished, want 3 and 3: the failing one and the one built ahead of it", started, finished)
	}
	settleGoroutines(t, before)
}

// TestFig2GeneratorPanicReachesCaller: a panic while generating is raised
// again on the goroutine that called Fig2Series, at the instance that
// panicked, so the scenario engine's cell containment turns it into the
// run's error instead of a crash of the process.
func TestFig2GeneratorPanicReachesCaller(t *testing.T) {
	type failure struct{ instance int }
	var started int
	bicriteria.SetFig2Generate(t, func(cfg workload.GenConfig, parallel bool) []*workload.Job {
		started++
		if started == 2 {
			panic(failure{started})
		}
		return workload.Sequential(cfg)
	})
	before := runtime.NumGoroutine()
	var points int
	got := func() (p any) {
		defer func() { p = recover() }()
		pts, _ := bicriteria.Fig2Series(bicriteria.Fig2Config{M: 8, Ns: []int{5, 6}, Seed: 1, Reps: 2})
		points = len(pts)
		return nil
	}()
	if got != (failure{2}) || points != 0 {
		t.Fatalf("recovered %v after %d points, want failure{2} raised before any point", got, points)
	}
	if started != 2 {
		t.Fatalf("%d instances started, want 2: generation stops at the panic", started)
	}
	settleGoroutines(t, before)

	started = 0
	spec, err := scenario.Decode(strings.NewReader(`{"id":"fig2-panic","kind":"fig2","params":{"reps":1,"quick_ns":[10,20]}}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = scenario.Run(spec, scenario.RunOptions{Seed: 1, Scale: scenario.Scale{JobFactor: 10}})
	if err == nil || !strings.Contains(err.Error(), "panicked: {2}") {
		t.Fatalf("scenario.Run = %v, want the cell's panic as the run's error", err)
	}
	settleGoroutines(t, before)
}
