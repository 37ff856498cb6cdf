package cluster

import (
	"testing"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchView builds a realistic decision point: queued jobs behind a
// running set.
func benchView(nQueue, nRunning, m int) View {
	rng := stats.NewRNG(11)
	var running []busy
	used := 0
	for i := 0; i < nRunning; i++ {
		procs := rng.IntRange(1, m/4)
		if used+procs > m {
			break
		}
		running = append(running, busy{rng.Range(1, 50), procs})
		used += procs
	}
	queue := make([]*workload.Job, nQueue)
	for i := range queue {
		p := rng.IntRange(1, m/2)
		queue[i] = &workload.Job{
			ID: i, Kind: workload.Rigid, Weight: 1, DueDate: -1,
			SeqTime: rng.Range(1, 40) * float64(p), MinProcs: p, MaxProcs: p,
			Model: workload.Linear{},
		}
	}
	return testView(0, m, 1, m-used, queue, running...)
}

// BenchmarkConservativeDecide times a conservative-backfilling plan of a
// 50-job queue from scratch (the plan is invalidated before every
// decision): the cost a simulation pays after a fault or a queue edit —
// not per event. BenchmarkClusterSimConservativeDeep has the per-event
// cost.
func BenchmarkConservativeDecide(b *testing.B) {
	v := benchView(50, 20, 64)
	pol := ConservativePolicy{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Plan.Invalidate()
		if ds := pol.Decide(v); len(ds) == 0 {
			b.Fatal("no decisions")
		}
	}
}

// BenchmarkEASYDecide times one EASY decision on a 50-job queue: profile
// clone, shadow time, and the backfill search of the queue index. The
// view keeps its index from one iteration to the next, as a simulation's
// views do. BenchmarkClusterSimEASYDeep has the cost per event with the
// index kept up as the queue changes.
func BenchmarkEASYDecide(b *testing.B) {
	v := benchView(50, 20, 64)
	pol := EASYPolicy{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ds := pol.Decide(v); len(ds) == 0 {
			b.Fatal("no decisions")
		}
	}
}

// BenchmarkClusterSimEASY runs a full cluster simulation with best-effort
// churn — the CiGri inner loop.
func BenchmarkClusterSimEASY(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := stats.NewRNG(7)
		s, err := New(des.NewWithCapacity(600), 32, 1, EASYPolicy{}, KillNewest)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 400; k++ {
			s.SubmitBestEffort(BETask{BagID: 0, Duration: rng.Range(5, 50)})
		}
		clock := 0.0
		for k := 0; k < 150; k++ {
			clock += rng.Exp(0.2)
			if err := s.Submit(rjob(k, rng.Range(1, 20), rng.IntRange(1, 16), clock)); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDeep streams a saturating mixed workload of n jobs — arrivals at
// twice the drain rate, so the queue grows with n and every arrival and
// finish is a decision over all of it — through the given policy.
func benchDeep(b *testing.B, policy Policy, n int) {
	const m = 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := New(des.New(), m, 1, policy, KillNewest)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.SetRetention(metrics.NewDiscard()); err != nil {
			b.Fatal(err)
		}
		src := workload.MixedSource(workload.GenConfig{N: n, M: m, Seed: 7, ArrivalRate: 2, RigidFraction: 0.5})
		if err := s.Stream(src); err != nil {
			b.Fatal(err)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		if s.CompletedCount() != n {
			b.Fatalf("completed %d of %d jobs", s.CompletedCount(), n)
		}
	}
}

// BenchmarkClusterSimConservativeDeep is the shape of the layered
// benchmark's deep_queue conservative cell (bench/engine.go): a queue
// hundreds deep, one slot reserved per arrival.
func BenchmarkClusterSimConservativeDeep(b *testing.B) { benchDeep(b, ConservativePolicy{}, 700) }

// BenchmarkClusterSimEASYDeep is the shape of deep_queue's EASY cell: a
// queue thousands deep with one or two processors free at most
// decisions, which is where the backfill search runs against the queue
// index rather than down the queue.
func BenchmarkClusterSimEASYDeep(b *testing.B) { benchDeep(b, EASYPolicy{}, 7000) }
