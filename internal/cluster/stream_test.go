package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// sameCompletion compares by value: the two runs build distinct Job
// instances, so pointer equality cannot hold.
func sameCompletion(a, b metrics.Completion) bool {
	return a.Job.ID == b.Job.ID && a.Start == b.Start && a.End == b.End && a.Procs == b.Procs
}

// runMaterialized submits every job up front (the historical path).
func runMaterialized(t *testing.T, m int, policy Policy, jobs []*workload.Job) *Sim {
	t.Helper()
	s, err := New(des.New(), m, 1, policy, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := submitAll(s, jobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// submitAll submits jobs in slice order and stops at the first error.
func submitAll(s *Sim, jobs []*workload.Job) error {
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			return err
		}
	}
	return nil
}

// runStreamed admits the same jobs lazily through Stream.
func runStreamed(t *testing.T, m int, policy Policy, src workload.Source, retain metrics.Retention) *Sim {
	t.Helper()
	s, err := New(des.New(), m, 1, policy, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if retain != nil {
		if err := s.SetRetention(retain); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Stream(src); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamMatchesMaterialized: lazy admission must reproduce the
// pre-submitted simulation exactly — same completions in the same
// order, same report — for continuous release streams (no release ever
// collides with a finish instant) across policies and both generators.
func TestStreamMatchesMaterialized(t *testing.T) {
	policies := []Policy{FCFSPolicy{}, EASYPolicy{}, GreedyFitPolicy{}}
	gens := []func(seed uint64) ([]*workload.Job, workload.Source){
		func(seed uint64) ([]*workload.Job, workload.Source) {
			cfg := workload.GenConfig{N: 400, M: 32, Seed: seed, ArrivalRate: 0.5, RigidFraction: 0.5}
			return workload.Parallel(cfg), workload.ParallelSource(cfg)
		},
		func(seed uint64) ([]*workload.Job, workload.Source) {
			cfg := workload.GenConfig{N: 300, M: 32, Seed: seed, ArrivalRate: 2}
			return workload.Sequential(cfg), workload.SequentialSource(cfg)
		},
	}
	for gi, gen := range gens {
		for _, pol := range policies {
			jobs, src := gen(uint64(11 + gi))
			want := runMaterialized(t, 32, pol, jobs)
			got := runStreamed(t, 32, pol, src, nil)
			wcs, gcs := want.Completions(), got.Completions()
			if len(wcs) != len(gcs) {
				t.Fatalf("%s/gen%d: %d vs %d completions", pol.Name(), gi, len(wcs), len(gcs))
			}
			for i := range wcs {
				if !sameCompletion(wcs[i], gcs[i]) {
					t.Fatalf("%s/gen%d: completion %d diverged:\nwant %+v\ngot  %+v",
						pol.Name(), gi, i, wcs[i], gcs[i])
				}
			}
			if want.Report() != got.Report() {
				t.Fatalf("%s/gen%d: reports diverged", pol.Name(), gi)
			}
		}
	}
}

// TestStreamMatchesSubmitAllAcrossBatches: streams shorter than, equal
// to, one past and several times the read-ahead batch give every policy
// the completions and report of the same jobs submitted up front.
func TestStreamMatchesSubmitAllAcrossBatches(t *testing.T) {
	policies := []Policy{FCFSPolicy{}, EASYPolicy{}, GreedyFitPolicy{}, ConservativePolicy{}}
	for _, n := range []int{0, 1, readAheadBatch - 1, readAheadBatch, readAheadBatch + 1, 3000} {
		cfg := workload.GenConfig{N: max(n, 1), M: 32, Seed: uint64(40 + n), ArrivalRate: 1, SeqMu: 2.5, RigidFraction: 0.5}
		for _, pol := range policies {
			want := runMaterialized(t, 32, pol, workload.Parallel(cfg)[:n])
			got := runStreamed(t, 32, pol, &sliceSource{workload.Parallel(cfg)[:n]}, nil)
			wcs, gcs := want.Completions(), got.Completions()
			if len(wcs) != n || len(gcs) != n {
				t.Fatalf("%s/n=%d: %d vs %d completions", pol.Name(), n, len(wcs), len(gcs))
			}
			waited := 0
			for i := range wcs {
				if wcs[i].Start > wcs[i].Job.Release {
					waited++
				}
				if !sameCompletion(wcs[i], gcs[i]) {
					t.Fatalf("%s/n=%d: completion %d diverged:\nwant %+v\ngot  %+v", pol.Name(), n, i, wcs[i], gcs[i])
				}
			}
			if want.Report() != got.Report() {
				t.Fatalf("%s/n=%d: reports diverged:\nwant %+v\ngot  %+v", pol.Name(), n, want.Report(), got.Report())
			}
			// A queue must form, or every policy would schedule alike.
			if n >= readAheadBatch && waited < n/10 {
				t.Fatalf("%s/n=%d: only %d jobs waited; the stream does not load the cluster", pol.Name(), n, waited)
			}
		}
	}
}

// TestStreamReportMatchesNewReport: the O(1) Report, folded as jobs
// finish, equals NewReport's fold of the full retained history, so the
// default retention keeps every completion, once, in completion order.
func TestStreamReportMatchesNewReport(t *testing.T) {
	cfg := workload.GenConfig{N: 250, M: 16, Seed: 4, ArrivalRate: 1, Weighted: true, DueDateSlack: 2}
	s := runStreamed(t, 16, EASYPolicy{}, workload.ParallelSource(cfg), nil)
	if want := metrics.NewReport(s.Completions(), 16); want != s.Report() {
		t.Fatalf("report diverged:\nNewReport %+v\nReport    %+v", want, s.Report())
	}
}

// TestStreamBoundedRetention: with a ring (or discard) store the
// aggregate report is untouched while memory holds only the tail.
func TestStreamBoundedRetention(t *testing.T) {
	cfg := workload.GenConfig{N: 300, M: 16, Seed: 9, ArrivalRate: 1}
	full := runStreamed(t, 16, EASYPolicy{}, workload.ParallelSource(cfg), nil)

	ring := runStreamed(t, 16, EASYPolicy{}, workload.ParallelSource(cfg), metrics.NewRing(32))
	if ring.Report() != full.Report() {
		t.Fatal("ring retention changed the report")
	}
	tail := ring.Completions()
	if len(tail) != 32 {
		t.Fatalf("ring kept %d records, want 32", len(tail))
	}
	fullCs := full.Completions()
	wantTail := fullCs[len(fullCs)-32:]
	for i := range tail {
		if !sameCompletion(tail[i], wantTail[i]) {
			t.Fatalf("ring tail %d diverged", i)
		}
	}

	disc := runStreamed(t, 16, EASYPolicy{}, workload.ParallelSource(cfg), metrics.NewDiscard())
	if disc.Report() != full.Report() {
		t.Fatal("discard retention changed the report")
	}
	if len(disc.Completions()) != 0 {
		t.Fatal("discard kept records")
	}
	if disc.CompletedCount() != 300 || disc.Submitted() != 300 {
		t.Fatalf("counts wrong: completed=%d submitted=%d", disc.CompletedCount(), disc.Submitted())
	}
}

// TestStreamBurstGroup: jobs sharing one release timestamp are admitted
// inside a single arrival event (event count stays O(distinct release
// times), not O(jobs)) and all complete.
func TestStreamBurstGroup(t *testing.T) {
	jobs := make([]*workload.Job, 40)
	for i := range jobs {
		jobs[i] = &workload.Job{
			ID: i, Kind: workload.Rigid, Release: float64(i / 10), Weight: 1, DueDate: -1,
			SeqTime: 1, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
		}
	}
	s, err := New(des.New(), 64, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stream(&sliceSource{jobs}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.CompletedCount() != 40 {
		t.Fatalf("completed %d of 40", s.CompletedCount())
	}
	// 4 arrival groups + 40 finish events + the initial arrival chain:
	// far fewer than one arrival event per job would produce.
	if got := s.DES.Processed; got > 48 {
		t.Fatalf("burst groups not coalesced: %d events", got)
	}
}

// sliceSource streams an in-memory job slice.
type sliceSource struct{ jobs []*workload.Job }

func (s *sliceSource) Next() (*workload.Job, bool) {
	if len(s.jobs) == 0 {
		return nil, false
	}
	j := s.jobs[0]
	s.jobs = s.jobs[1:]
	return j, true
}

// failingSource yields one good job then fails.
type failingSource struct{ done bool }

func (f *failingSource) Next() (*workload.Job, bool) {
	if f.done {
		return nil, false
	}
	f.done = true
	return &workload.Job{
		ID: 0, Kind: workload.Rigid, Release: 0, Weight: 1, DueDate: -1,
		SeqTime: 1, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
	}, true
}

func (f *failingSource) Err() error { return errSource }

var errSource = errors.New("stream corrupted")

// TestStreamSourceError: a mid-stream source failure surfaces from Run.
func TestStreamSourceError(t *testing.T) {
	s, err := New(des.New(), 4, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stream(&failingSource{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); !errors.Is(err, errSource) {
		t.Fatalf("Run = %v, want source error", err)
	}

	// An oversized job in the stream also aborts with a clear error —
	// at attach time when it is the stream head, from Run otherwise.
	wide := &workload.Job{
		ID: 7, Kind: workload.Rigid, Release: 0, Weight: 1, DueDate: -1,
		SeqTime: 1, MinProcs: 99, MaxProcs: 99, Model: workload.Linear{},
	}
	s2, _ := New(des.New(), 4, 1, FCFSPolicy{}, KillNewest)
	err2 := s2.Stream(&sliceSource{[]*workload.Job{wide}})
	if err2 == nil {
		err2 = s2.Run()
	}
	if err2 == nil {
		t.Fatal("oversized streamed job not rejected")
	}
}

// panickingSource yields n one-processor jobs, then panics.
type panickingSource struct{ n, i int }

func (p *panickingSource) Next() (*workload.Job, bool) {
	if p.i == p.n {
		panic("source broke")
	}
	p.i++
	return &workload.Job{
		ID: p.i, Kind: workload.Rigid, Release: float64(p.i), Weight: 1, DueDate: -1,
		SeqTime: 1, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
	}, true
}

// TestStreamSourcePanicReachesRun: a panic in the source, met on the
// read-ahead goroutine, is raised from Run on the caller's goroutine
// once the jobs before it are admitted, so that a caller containing
// panics (the scenario cell pool) still recovers it.
func TestStreamSourcePanicReachesRun(t *testing.T) {
	s, err := New(des.New(), 4, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stream(&panickingSource{n: 1500}); err != nil {
		t.Fatal(err)
	}
	run := func() (v any) {
		defer func() { v = recover() }()
		_ = s.Run()
		return nil
	}
	if v := run(); v != "source broke" {
		t.Fatalf("Run panicked with %v, want the source's panic", v)
	}
	if s.Submitted() != 1500 {
		t.Fatalf("%d jobs admitted before the panic, want 1500", s.Submitted())
	}
}

// TestStreamUnschedulableArrival: a streamed job whose arrival the DES
// refuses (a NaN release) ends the stream with an error from Run that
// names it, instead of truncating the stream silently.
func TestStreamUnschedulableArrival(t *testing.T) {
	jobs := make([]*workload.Job, 3)
	for i := range jobs {
		jobs[i] = &workload.Job{
			ID: i + 1, Kind: workload.Rigid, Release: float64(i), Weight: 1, DueDate: -1,
			SeqTime: 5, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
		}
	}
	jobs[1].Release = math.NaN()
	s, err := New(des.New(), 4, 1, EASYPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stream(&sliceSource{jobs}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err == nil || !strings.Contains(err.Error(), "cluster: job 2: des: scheduling at non-finite time") {
		t.Fatalf("Run = %v, want job 2's scheduling error", err)
	}
	if s.CompletedCount() != 1 {
		t.Fatalf("%d jobs completed, want 1", s.CompletedCount())
	}
}

// TestStreamGuards: double-attach and post-drain streaming are rejected,
// as is a retention swap after completions exist.
func TestStreamGuards(t *testing.T) {
	s, _ := New(des.New(), 4, 1, FCFSPolicy{}, KillNewest)
	src := workload.SequentialSource(workload.GenConfig{N: 5, Seed: 1})
	if err := s.Stream(src); err != nil {
		t.Fatal(err)
	}
	if err := s.Stream(workload.SequentialSource(workload.GenConfig{N: 5, Seed: 2})); err == nil {
		t.Fatal("second Stream accepted")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRetention(metrics.NewDiscard()); err == nil {
		t.Fatal("retention swap after completions accepted")
	}
	if err := s.Stream(src); !errors.Is(err, ErrDrained) {
		t.Fatalf("post-drain Stream = %v, want ErrDrained", err)
	}
}

// TestStreamLargeScaleBounded exercises a bigger stream end to end with
// discard retention — the replay configuration — and cross-checks the
// report against a full-retention run.
func TestStreamLargeScaleBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("large stream")
	}
	cfg := workload.GenConfig{N: 20000, M: 64, Seed: 5, ArrivalRate: 4, SeqMu: 2.5}
	lean := runStreamed(t, 64, EASYPolicy{}, workload.ParallelSource(cfg), metrics.NewDiscard())
	full := runStreamed(t, 64, EASYPolicy{}, workload.ParallelSource(cfg), nil)
	if lean.Report() != full.Report() {
		t.Fatalf("reports diverged:\nlean %+v\nfull %+v", lean.Report(), full.Report())
	}
	if lean.CompletedCount() != 20000 {
		t.Fatalf("completed %d", lean.CompletedCount())
	}
}

// TestTwoStreamsShareOneDES: two Sims streaming on one DES (as the grid
// simulators share one) take turns in its one-event feed slot, the
// arrival of one going through the heap while the other's holds the
// slot. Every job must complete exactly as it does on a DES of its own.
func TestTwoStreamsShareOneDES(t *testing.T) {
	cfgs := []workload.GenConfig{
		{N: 400, M: 32, Seed: 21, ArrivalRate: 0.5, RigidFraction: 0.5},
		{N: 300, M: 32, Seed: 22, ArrivalRate: 2, RigidFraction: 0.5},
	}
	policies := []Policy{EASYPolicy{}, ConservativePolicy{}}
	shared := des.New()
	sims := make([]*Sim, len(cfgs))
	for i, cfg := range cfgs {
		s, err := New(shared, 32, 1, policies[i], KillNewest)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Stream(workload.ParallelSource(cfg)); err != nil {
			t.Fatal(err)
		}
		sims[i] = s
	}
	for _, s := range sims {
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i, cfg := range cfgs {
		want := runStreamed(t, 32, policies[i], workload.ParallelSource(cfg), nil).Completions()
		got := sims[i].Completions()
		if len(got) != len(want) || len(got) != cfg.N {
			t.Fatalf("stream %d: %d completions on the shared DES, %d alone, want %d", i, len(got), len(want), cfg.N)
		}
		for k := range want {
			if !sameCompletion(got[k], want[k]) {
				t.Fatalf("stream %d, completion %d: %+v on the shared DES, %+v alone", i, k, got[k], want[k])
			}
		}
	}
}
