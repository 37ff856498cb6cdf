package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/rigid"
	"repro/internal/runtrace"
)

// tracedShare of the window goes to the alternating plain/traced
// passes; the rest is left for the micro-probes.
const tracedShare = 0.7

// alternate runs plain and traced passes in turn until the share of
// the window is spent (at least two of each).
func alternate(e *env, plain, traced func(i int) (passStats, error)) (p, t []passStats, err error) {
	budget := time.Duration(float64(e.window) * tracedShare)
	t0 := time.Now()
	for i := 0; i < 2 || time.Since(t0) < budget; i++ {
		ps, err := plain(i)
		if err != nil {
			return nil, nil, err
		}
		ts, err := traced(i)
		if err != nil {
			return nil, nil, err
		}
		p, t = append(p, ps), append(t, ts)
	}
	return p, t, nil
}

// engineLayers reports the cluster-level per-layer metrics of an
// engine workload from its plain and traced passes. traces maps policy
// name to the aggregate of that policy's traced simulations. It returns
// the job source's time per job (ns) and share of the run, which the
// caller reports under the source layer's own name.
func engineLayers(e *env, plain, traced []passStats, traces map[string]*engineTrace) (sourceNS, sourceShare float64) {
	var mallocs, allocBytes uint64
	var jobs int
	var plainMS, tracedMS []float64
	for i, p := range plain {
		mallocs += p.mallocs
		allocBytes += p.allocBytes
		jobs += p.jobs
		plainMS = append(plainMS, ms(p.wall))
		tracedMS = append(tracedMS, ms(traced[i].wall))
	}
	// Decorated and undecorated passes must simulate the same thing.
	e.out.info["sim_digest"] = checkDigests(e, append(append([]passStats(nil), plain...), traced...))
	e.out.set("cluster.allocs_per_job", float64(mallocs)/float64(jobs))
	e.out.set("cluster.alloc_bytes_per_job", float64(allocBytes)/float64(jobs))
	e.out.set("des.events", plain[0].work)
	e.out.set("harness.trace_overhead_pct", 100*(median(tracedMS)/median(plainMS)-1))
	e.out.info["passes"] = len(plain)

	var all engineTrace
	for policy, t := range traces {
		e.out.set("cluster.decide_us_mean."+policy, us(t.decide.d)/float64(t.decide.n))
		all.runs = max(all.runs, t.runs)
		all.jobs += t.jobs
		all.wall += t.wall
		all.decide.n += t.decide.n
		all.decide.d += t.decide.d
		all.queueSum += t.queueSum
		all.starts += t.starts
		all.source.d += t.source.d
		all.retain.d += t.retain.d
	}
	nj := float64(all.jobs)
	e.out.set("cluster.decide_calls", float64(all.decide.n)/float64(all.runs))
	e.out.set("cluster.decide_share", all.decide.d.Seconds()/all.wall.Seconds())
	e.out.set("cluster.queue_len_mean", float64(all.queueSum)/float64(all.decide.n))
	e.out.set("cluster.starts_per_decide", float64(all.starts)/float64(all.decide.n))
	e.out.set("cluster.self_ns_per_job", float64((all.wall-all.decide.d-all.source.d-all.retain.d).Nanoseconds())/nj)
	e.out.set("metrics.retention_add_ns_per_job", float64(all.retain.d.Nanoseconds())/nj)
	return float64(all.source.d.Nanoseconds()) / nj, all.source.d.Seconds() / all.wall.Seconds()
}

func traceReplayStream(e *env, path string, setupS float64) error {
	t := &engineTrace{rec: e.rec, srcName: "trace.swf_next"}
	plain, traced, err := alternate(e,
		func(int) (passStats, error) { return replayPass(e, path, nil) },
		func(int) (passStats, error) { return replayPass(e, path, t) })
	if err != nil {
		return err
	}
	nextNS, share := engineLayers(e, plain, traced, map[string]*engineTrace{"easy": t})
	e.out.set("trace.swf_next_ns_per_job", nextNS)
	e.out.set("trace.swf_share", share)
	e.out.set("trace.swf_write_ns_per_job", setupS*1e9/replayJobs)
	e.out.info["jobs"] = replayJobs
	probeDES(e)
	return probeRuntrace(e)
}

func traceDeepQueue(e *env) error {
	traces := map[string]*engineTrace{}
	var ts []*engineTrace
	for _, c := range deepCells {
		t := &engineTrace{rec: e.rec, srcName: "workload.gen"}
		traces[c.policy] = t
		ts = append(ts, t)
	}
	plain, traced, err := alternate(e,
		func(i int) (passStats, error) { return deepPass(e, i%deepVariants, nil) },
		func(i int) (passStats, error) { return deepPass(e, i%deepVariants, ts) })
	if err != nil {
		return err
	}
	genNS, _ := engineLayers(e, plain, traced, traces)
	e.out.set("workload.gen_ns_per_job", genNS)
	e.out.info["jobs"] = plain[0].jobs
	probeRigid(e)
	return nil
}

// probeDES times the bare event kernel: a million no-op events at
// seeded random times, scheduled with At and drained with Run.
func probeDES(e *env) {
	const n = 1_000_000
	rng := rand.New(rand.NewPCG(e.seed, 0xde5))
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * 1e6
	}
	noop := func() {}
	sim := des.New()
	t0 := time.Now()
	for _, t := range times {
		if err := sim.At(t, noop); err != nil {
			e.out.failf("des probe: %v", err)
			return
		}
	}
	err := sim.Run()
	d := time.Since(t0)
	e.rec.add("des.probe", "probe", 0, t0, d, n)
	e.out.attempted++
	if err != nil || sim.Processed != n {
		e.out.failf("des probe: processed %d of %d events: %v", sim.Processed, n, err)
	}
	e.out.set("des.ns_per_event", float64(d.Nanoseconds())/n)
}

// probeRigid times the two profile operations backfilling leans on, on
// a profile of about 256 segments: finding and reserving a slot (with
// the balancing Release, so the profile keeps its size), and cloning a
// what-if copy.
func probeRigid(e *env) {
	rng := rand.New(rand.NewPCG(e.seed, 0x919))
	p := rigid.NewProfile(engineM)
	for i := 0; i < 128; i++ {
		if err := p.Reserve(float64(i)*10, 5, 1+rng.IntN(engineM/2)); err != nil {
			e.out.failf("rigid probe: %v", err)
			return
		}
	}
	e.out.info["rigid_probe_segments"] = p.Segments()
	const ops = 200_000
	e.out.attempted++
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		dur, procs := 1+8*rng.Float64(), 1+rng.IntN(engineM/4)
		at, err := p.EarliestSlot(1280*rng.Float64(), dur, procs)
		if err == nil {
			err = p.Reserve(at, dur, procs)
		}
		if err == nil {
			err = p.Release(at, dur, procs)
		}
		if err != nil {
			e.out.failf("rigid probe: %v", err)
			return
		}
	}
	d := time.Since(t0)
	e.rec.add("rigid.slot_reserve", "probe", 0, t0, d, ops)
	e.out.set("rigid.slot_reserve_ns", float64(d.Nanoseconds())/ops)

	t0 = time.Now()
	for i := 0; i < ops; i++ {
		p.Clone().Recycle()
	}
	d = time.Since(t0)
	e.rec.add("rigid.clone", "probe", 0, t0, d, ops)
	e.out.set("rigid.clone_ns", float64(d.Nanoseconds())/ops)
}

// probeRuntrace prices the run-trace recorder: the same online cell
// with and without a recorder attached, and the JSONL encoding of what
// it recorded. None of the six workloads records traces; the numbers
// exist so "tracing costs nothing on the hot path" can be checked.
func probeRuntrace(e *env) error {
	const n = 20_000
	cell := func(rec *runtrace.Recorder) (time.Duration, error) {
		entry, err := registry.Get("easy")
		if err != nil {
			return 0, err
		}
		sim, err := cluster.New(des.New(), engineM, 1, entry.NewPolicy(), cluster.KillNewest)
		if err != nil {
			return 0, err
		}
		if err := sim.SetRetention(metrics.NewDiscard()); err != nil {
			return 0, err
		}
		rec.Attach(sim, "")
		t0 := time.Now()
		if err := sim.Stream(deepSource(n, e.seed, 0)); err != nil {
			return 0, err
		}
		if err := sim.Run(); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	var plainMS, tracedMS []float64
	var rec *runtrace.Recorder
	for i := 0; i < 3; i++ {
		d, err := cell(nil)
		if err != nil {
			return fmt.Errorf("runtrace probe: %w", err)
		}
		plainMS = append(plainMS, ms(d))
		rec = runtrace.NewRecorder(0)
		if d, err = cell(rec); err != nil {
			return fmt.Errorf("runtrace probe: %w", err)
		}
		tracedMS = append(tracedMS, ms(d))
	}
	e.out.set("runtrace.record_overhead_pct", 100*(median(tracedMS)/median(plainMS)-1))

	tr := rec.Finish(0, "probe")
	e.out.attempted++
	if len(tr.Events) < 2*n {
		e.out.failf("runtrace probe: %d events recorded for %d jobs", len(tr.Events), n)
		return nil
	}
	t0 := time.Now()
	if err := runtrace.WriteJSONL(io.Discard, []runtrace.CellTrace{tr}); err != nil {
		return fmt.Errorf("runtrace probe: %w", err)
	}
	d := time.Since(t0)
	e.rec.add("runtrace.jsonl_encode", "probe", 0, t0, d, int64(len(tr.Events)))
	e.out.set("runtrace.jsonl_encode_ns_per_event", float64(d.Nanoseconds())/float64(len(tr.Events)))
	return nil
}
