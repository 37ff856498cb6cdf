package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Engine workload shapes. The cluster is 64 wide in both; what differs
// is how deep the waiting queue gets.
const (
	engineM = 64

	// replay_stream: submit gap 0.5 s, runtime U[1,20], 1-2 procs keeps
	// utilisation near 50%, so the queue holds about half a job however
	// long the archive is.
	replayJobs = 100_000

	// deep_queue: arrival rate 2/s of mixed jobs saturates 64
	// processors, so the queue grows with n. Conservative backfilling
	// is roughly cubic in n, EASY roughly linear.
	deepConservativeN = 700
	deepEasyN         = 7000
	// The cost of a saturated stream varies by some 6-9% with its seed,
	// so passes rotate over this many streams derived from the
	// benchmark seed and the median pass is a median over streams.
	deepVariants = 12
)

// passStats is one measured pass of an engine workload.
type passStats struct {
	wall, cpu time.Duration
	// normWall and normCPU are wall and cpu at reference host speed
	// (calib.go), scaled by the kernel timings around the pass.
	normWall, normCPU time.Duration

	bad        string  // why the pass's output is wrong; empty when right
	work       float64 // DES events, or rendered tables
	jobs       int
	peakHeap   uint64
	mallocs    uint64
	allocBytes uint64
	digest     string // simulated statistics, must repeat exactly
	variant    int    // which of the workload's input variants the pass ran
}

// measure runs fn between a forced GC and a 5 ms HeapAlloc sampler,
// bracketed by calibration samples, and fills in the host-side figures
// of a pass.
func measure(cal *calibrator, fn func() (work float64, jobs int, digest string, err error)) (passStats, error) {
	first := cal.boundary()
	runtime.GC() // also clears the kernel's garbage
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	peak := before.HeapAlloc
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.HeapAlloc)
			}
		}
	}()
	cpu0 := selfCPU()
	t0 := time.Now()
	work, jobs, digest, err := fn()
	wall := time.Since(t0)
	cpu := selfCPU() - cpu0
	close(stop)
	wg.Wait()
	cal.boundary()
	runtime.ReadMemStats(&after)
	// A wrong output is a failed operation, not a reason to stop
	// measuring: the run still reports, with correct=false.
	var bad string
	if wrong := (wrongOutput{}); errors.As(err, &wrong) {
		bad, err = wrong.msg, nil
	}
	speed := cal.factorSince(first)
	return passStats{
		wall: wall, cpu: cpu, work: work, jobs: jobs, digest: digest, bad: bad,
		normWall: time.Duration(float64(wall) * speed), normCPU: time.Duration(float64(cpu) * speed),
		peakHeap: max(peak, after.HeapAlloc),
		mallocs:  after.Mallocs - before.Mallocs, allocBytes: after.TotalAlloc - before.TotalAlloc,
	}, err
}

// add folds a later part of the same pass into p: times, work and
// allocations add up, the heap peak is the highest of the parts.
func (p *passStats) add(q passStats) {
	p.wall, p.cpu = p.wall+q.wall, p.cpu+q.cpu
	p.normWall, p.normCPU = p.normWall+q.normWall, p.normCPU+q.normCPU
	p.work, p.jobs = p.work+q.work, p.jobs+q.jobs
	p.peakHeap = max(p.peakHeap, q.peakHeap)
	p.mallocs, p.allocBytes = p.mallocs+q.mallocs, p.allocBytes+q.allocBytes
	if p.bad == "" {
		p.bad = q.bad
	}
}

// wrongOutput marks an error that means the program under test gave a
// wrong answer, as opposed to the harness being unable to run.
type wrongOutput struct{ msg string }

func (w wrongOutput) Error() string { return w.msg }

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvDuration(ru.Utime) + tvDuration(ru.Stime)
}

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// timedPasses repeats pass until the window is used up (a pass that
// would overshoot by more than half its length is not started) and at
// least three passes exist to take a median of.
func timedPasses(e *env, pass func(i int) (passStats, error)) ([]passStats, error) {
	var out []passStats
	t0 := time.Now()
	for i := 0; ; i++ {
		ps, err := pass(i)
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
		if len(out) >= 3 && time.Since(t0)+ps.wall/2 >= e.window {
			return out, nil
		}
	}
}

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 5

// timeSetups runs a set-up step setupReps times, each bracketed by
// calibration samples, and returns the median raw and host-speed-
// normalised time, so one slow start does not decide setup_s. undo,
// when set, takes a set-up down again, untimed, before the next one;
// the last set-up is left standing.
func timeSetups(e *env, setup func(i int) error, undo func()) (raw, norm float64, err error) {
	var raws, norms []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && undo != nil {
			undo()
		}
		first := e.cal.boundary()
		t0 := time.Now()
		if err := setup(i); err != nil {
			return 0, 0, err
		}
		d := time.Since(t0).Seconds()
		e.cal.boundary()
		raws, norms = append(raws, d), append(norms, d*e.cal.factorSince(first))
	}
	return median(raws), median(norms), nil
}

// reportPasses turns measured passes into the end-to-end metrics of an
// engine workload and checks that every pass simulated the same thing.
// Each pass's times are at reference host speed before the median is
// taken (calib.go).
func reportPasses(e *env, setupS float64, passes []passStats) {
	var rate, wallMS, cpuMS, heapMB, rawMS []float64
	digests := checkDigests(e, passes)
	for _, p := range passes {
		rate = append(rate, p.work/p.normWall.Seconds())
		wallMS = append(wallMS, ms(p.normWall))
		cpuMS = append(cpuMS, ms(p.normCPU))
		rawMS = append(rawMS, ms(p.wall))
		heapMB = append(heapMB, float64(p.peakHeap)/1e6)
	}
	tailMS, q := tail(wallMS, 0.95)
	e.out.set("setup_s", setupS)
	e.out.set("work_per_s", median(rate))
	e.out.set("op_ms_p50", median(wallMS))
	e.out.set("op_ms_tail", tailMS)
	e.out.set("peak_mem_mb", median(heapMB))
	e.out.set("cpu_ms_per_op", median(cpuMS))
	e.out.info["sim_digest"] = digests
	e.out.info["passes"] = len(passes)
	e.out.info["op_ms_tail_quantile"] = q
	e.out.info["cell_runner"] = "sequential (Workers: 0)"
	e.out.info["raw_op_ms_p50"] = median(rawMS)
	e.out.info["calib_ms_median"] = median(e.cal.ms)
	e.out.info["calib_samples"] = len(e.cal.ms)
}

// checkDigests counts every pass as an operation and fails those whose
// output is wrong or whose simulated statistics differ from the first
// pass over the same input variant. It returns the digest per variant,
// recorded so that two commits compare exactly.
func checkDigests(e *env, passes []passStats) map[int]string {
	first := map[int]string{}
	for _, p := range passes {
		e.out.attempted++
		want, seen := first[p.variant]
		switch {
		case p.bad != "":
			e.out.failf("%s: %s", e.workload, p.bad)
		case !seen:
			first[p.variant] = p.digest
		case p.digest != want:
			e.out.failf("%s: variant %d: pass digest %s differs from an earlier pass's %s (same input, different simulation)",
				e.workload, p.variant, p.digest, want)
		}
	}
	return first
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// engineTrace aggregates the wrapped calls of the traced simulations of
// one policy, and records their spans.
type engineTrace struct {
	rec     *recorder
	srcName string // span name of the job source layer

	runs             int
	jobs             int
	wall             time.Duration
	decide           callAgg
	queueSum, starts int64
	source, retain   callAgg
}

type tracedPolicy struct {
	cluster.Policy
	t *engineTrace
}

func (p tracedPolicy) Decide(v cluster.View) []cluster.Decision {
	t0 := time.Now()
	d := p.Policy.Decide(v)
	p.t.decide.observe(t0)
	p.t.queueSum += int64(len(v.Queue))
	p.t.starts += int64(len(d))
	return d
}

type tracedSource struct {
	inner workload.Source
	agg   *callAgg
}

func (s *tracedSource) Next() (*workload.Job, bool) {
	t0 := time.Now()
	j, ok := s.inner.Next()
	s.agg.observe(t0)
	return j, ok
}

// Err forwards the mid-stream error of sources that have one, which
// cluster.Sim looks for when Next reports the end.
func (s *tracedSource) Err() error {
	if es, ok := s.inner.(interface{ Err() error }); ok {
		return es.Err()
	}
	return nil
}

type tracedRetention struct {
	metrics.Retention
	agg *callAgg
}

func (r tracedRetention) Add(c metrics.Completion) {
	t0 := time.Now()
	r.Retention.Add(c)
	r.agg.observe(t0)
}

// simulate streams src through a fresh cluster.Sim under the named
// registry policy with discard retention, and requires every one of
// the n jobs to complete. With t set, policy, source and retention are
// wrapped in aggregating decorators.
func simulate(policy string, src workload.Source, n int, t *engineTrace) (events uint64, digest string, err error) {
	entry, err := registry.Get(policy)
	if err != nil {
		return 0, "", err
	}
	pol := entry.NewPolicy()
	ret := metrics.NewDiscard()
	var before engineTrace
	if t != nil {
		before = *t
		pol = tracedPolicy{pol, t}
		src = &tracedSource{src, &t.source}
		ret = tracedRetention{ret, &t.retain}
	}
	start := time.Now()
	sim, err := cluster.New(des.New(), engineM, 1, pol, cluster.KillNewest)
	if err != nil {
		return 0, "", err
	}
	if err := sim.SetRetention(ret); err != nil {
		return 0, "", err
	}
	if err := sim.Stream(src); err != nil {
		return 0, "", err
	}
	if err := sim.Run(); err != nil {
		return 0, "", err
	}
	if t != nil {
		t.emit(&before, policy, start, time.Since(start), n)
	}
	if got := sim.CompletedCount(); got != n {
		return 0, "", wrongOutput{fmt.Sprintf("%s: completed %d of %d jobs", policy, got, n)}
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d|%d|%+v", sim.CompletedCount(), sim.DES.Processed, sim.Report())))
	return sim.DES.Processed, fmt.Sprintf("%x", sum[:8]), nil
}

// emit records one traced simulation: a root span for the run and one
// aggregate child per wrapped layer (the calls since before), laid end
// to end so that the root's self time is the simulator's own.
func (t *engineTrace) emit(before *engineTrace, policy string, start time.Time, wall time.Duration, n int) {
	t.runs++
	t.jobs += n
	t.wall += wall
	run := fmt.Sprintf("%s-%d", policy, t.runs)
	root := t.rec.add("cluster.run", run, 0, start, wall, 1)
	at := start
	for _, c := range []struct {
		name        string
		now, before callAgg
	}{
		{"cluster.decide", t.decide, before.decide},
		{t.srcName, t.source, before.source},
		{"metrics.retention_add", t.retain, before.retain},
	} {
		d := c.now.d - c.before.d
		t.rec.add(c.name, run, root, at, d, c.now.n-c.before.n)
		at = at.Add(d)
	}
}

// writeArchive writes an n-job SWF archive derived from seed.
func writeArchive(path string, n int, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewSWFWriter(f)
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	for i := 0; i < n; i++ {
		if err := w.Write(trace.SWFRecord{
			ID: i, Submit: float64(i) * 0.5,
			Runtime: 1 + 19*rng.Float64(), Procs: 1 + rng.IntN(2), Weight: 1,
		}); err != nil {
			return fmt.Errorf("write archive: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write archive: %w", err)
	}
	return f.Close()
}

// replayPass streams the archive once.
func replayPass(e *env, path string, t *engineTrace) (passStats, error) {
	return measure(e.cal, func() (float64, int, string, error) {
		f, err := os.Open(path)
		if err != nil {
			return 0, 0, "", err
		}
		defer f.Close()
		events, digest, err := simulate("easy", trace.NewSWFJobSource(f), replayJobs, t)
		return float64(events), replayJobs, digest, err
	})
}

func runReplayStream(e *env) error {
	path := filepath.Join(e.tmp, "archive.swf")
	rawSetupS, setupS, err := timeSetups(e, func(int) error { return writeArchive(path, replayJobs, e.seed) }, nil)
	if err != nil {
		return err
	}
	if e.traced {
		return traceReplayStream(e, path, rawSetupS)
	}
	passes, err := timedPasses(e, func(int) (passStats, error) { return replayPass(e, path, nil) })
	if err != nil {
		return err
	}
	reportPasses(e, setupS, passes)
	e.out.info["jobs"] = replayJobs
	return nil
}

// deepSource is a saturating mixed stream of deep_queue: variant picks
// one of the streams derived from the benchmark seed.
func deepSource(n int, seed uint64, variant int) workload.Source {
	return workload.MixedSource(workload.GenConfig{
		N: n, M: engineM, Seed: seedBase(seed) + uint64(variant), ArrivalRate: 2, RigidFraction: 0.5,
	})
}

// deepCells are the two simulations of one deep_queue pass.
var deepCells = []struct {
	policy string
	n      int
}{{"conservative", deepConservativeN}, {"easy", deepEasyN}}

// deepCellsRun runs both cells on one stream variant at 1/scale of
// their size; ts, when set, holds one engineTrace per cell.
func deepCellsRun(seed uint64, scale, variant int, ts []*engineTrace) (events float64, jobs int, digest string, err error) {
	for i, c := range deepCells {
		var t *engineTrace
		if ts != nil {
			t = ts[i]
		}
		n := c.n / scale
		ev, d, err := simulate(c.policy, deepSource(n, seed, variant), n, t)
		if err != nil {
			return 0, 0, "", err
		}
		events += float64(ev)
		jobs += n
		digest += d
	}
	return events, jobs, digest, nil
}

// deepPass is one measured full-size pass over a stream variant.
func deepPass(e *env, variant int, ts []*engineTrace) (passStats, error) {
	ps, err := measure(e.cal, func() (float64, int, string, error) {
		return deepCellsRun(e.seed, 1, variant, ts)
	})
	ps.variant = variant
	return ps, err
}

func runDeepQueue(e *env) error {
	// Set-up is a half-size warm pass: it fills the profile and job
	// pools the measured passes then reuse.
	_, setupS, err := timeSetups(e, func(int) error { _, _, _, err := deepCellsRun(e.seed, 2, 0, nil); return err }, nil)
	if err != nil {
		return err
	}
	if e.traced {
		return traceDeepQueue(e)
	}
	passes, err := timedPasses(e, func(i int) (passStats, error) { return deepPass(e, i%deepVariants, nil) })
	if err != nil {
		return err
	}
	reportPasses(e, setupS, passes)
	e.out.info["jobs"] = passes[0].jobs
	return nil
}
