package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/workload"
)

// submit is the single-job submission the broker performs: the spec
// materialized at the next ID (IDs count up from 0 like the broker's),
// then SubmitJobs. Two concurrent callers may pick the same ID, so it
// is for sequential use.
func submit(e *Engine, spec JobSpec) (JobStatus, error) {
	st, err := e.Stats()
	if err != nil {
		return JobStatus{}, err
	}
	id := st.Submitted
	j, err := spec.Job(id)
	if err != nil {
		return JobStatus{}, err
	}
	if err := e.SubmitJobs([]*workload.Job{j}); err != nil {
		return JobStatus{}, err
	}
	return JobStatus{ID: id, Name: j.Name, Class: j.Class, State: StateWaiting, Release: j.Release}, nil
}

func TestSubmitAndComplete(t *testing.T) {
	e, err := New(Config{M: 8, Policy: "easy"})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	st, err := submit(e, JobSpec{Name: "a", SeqTime: 100, MinProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 || st.State != StateWaiting {
		t.Fatalf("initial status = %+v", st)
	}
	stats, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 1 || stats.Submitted != 1 {
		t.Fatalf("stats after drain = %+v", stats)
	}
	got, ok, err := e.Job(0)
	if err != nil || !ok {
		t.Fatalf("Job(0): ok=%v err=%v", ok, err)
	}
	if got.State != StateDone || got.Procs != 2 || got.End <= 0 {
		t.Fatalf("final status = %+v", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	e, err := New(Config{M: 4, Policy: "fcfs"})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	if _, err := submit(e, JobSpec{SeqTime: -1, MinProcs: 1}); err == nil {
		t.Fatal("negative seq_time accepted")
	}
	if _, err := submit(e, JobSpec{SeqTime: 10, MinProcs: 99}); err == nil {
		t.Fatal("job wider than the cluster accepted")
	}
	// Failed submissions must not burn IDs.
	st, err := submit(e, JobSpec{SeqTime: 10, MinProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 {
		t.Fatalf("first accepted job got ID %d, want 0", st.ID)
	}
}

func TestDrainRejectsFurtherSubmissions(t *testing.T) {
	e, err := New(Config{M: 8, Policy: "easy"})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	if _, err := submit(e, JobSpec{SeqTime: 10, MinProcs: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = submit(e, JobSpec{SeqTime: 10, MinProcs: 1})
	if !errors.Is(err, cluster.ErrDrained) {
		t.Fatalf("post-drain submit error = %v, want ErrDrained", err)
	}
}

func TestStoppedEngineRejects(t *testing.T) {
	e, err := New(Config{M: 8, Policy: "easy"})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	e.Stop()
	if _, err := submit(e, JobSpec{SeqTime: 10, MinProcs: 1}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop = %v, want ErrStopped", err)
	}
}

func TestOfflinePolicyRejected(t *testing.T) {
	if _, err := New(Config{Policy: "mrt"}); err == nil {
		t.Fatal("offline-only policy accepted by the service")
	}
	if _, err := New(Config{Policy: "no-such"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestDilationPacesVirtualClock checks the wall-clock driver: with a
// dilation of 1000x, a 100-virtual-second job must complete within a few
// hundred wall milliseconds — and not instantly.
func TestDilationPacesVirtualClock(t *testing.T) {
	e, err := New(Config{M: 4, Policy: "fcfs", Dilation: 1000})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	if _, err := submit(e, JobSpec{SeqTime: 100, MinProcs: 1}); err != nil {
		t.Fatal(err)
	}
	// At 1000 virtual s / wall s, completion is due ~100ms in.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok, err := e.Job(0)
		if err != nil || !ok {
			t.Fatalf("Job(0): ok=%v err=%v", ok, err)
		}
		if st.State == StateDone {
			if st.End < 100 {
				t.Fatalf("job completed at virtual %v, want >= 100", st.End)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not completed after 5s wall; status %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.VirtualNow < 100 {
		t.Fatalf("virtual clock %v did not pass the completion time", stats.VirtualNow)
	}
}

func TestQueueSnapshot(t *testing.T) {
	// Dilated mode so the in-flight state is observable: at 1 virtual
	// second per wall second, a 10000-virtual-second job effectively
	// never finishes within the test.
	e, err := New(Config{M: 2, Policy: "fcfs", Dilation: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	// Two 2-wide jobs: the second must wait behind the first.
	for i := 0; i < 2; i++ {
		if _, err := submit(e, JobSpec{SeqTime: 10000, MinProcs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap, err := e.Queue()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Running) == 1 && len(snap.Waiting) == 1 {
			if snap.Running[0].ID != 0 || snap.Waiting[0].ID != 1 {
				t.Fatalf("queue snapshot order: running=%d waiting=%d", snap.Running[0].ID, snap.Waiting[0].ID)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue snapshot never reached 1 running / 1 waiting: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitJobsAtomicity: a batch containing an invalid job (or an
// intra-batch duplicate ID) must leave no partial state behind.
func TestSubmitJobsAtomicity(t *testing.T) {
	e, err := New(Config{M: 4, Policy: "fcfs"})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	good := func(id int) *workload.Job {
		return &workload.Job{
			ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1,
			SeqTime: 10, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
		}
	}
	tooWide := good(2)
	tooWide.MinProcs, tooWide.MaxProcs = 99, 99
	if err := e.SubmitJobs([]*workload.Job{good(0), good(1), tooWide}); err == nil {
		t.Fatal("batch with too-wide job accepted")
	}
	if err := e.SubmitJobs([]*workload.Job{good(3), good(3)}); err == nil {
		t.Fatal("batch with intra-batch duplicate ID accepted")
	}
	stats, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != 0 {
		t.Fatalf("rejected batches leaked %d jobs", stats.Submitted)
	}
	// A clean batch still goes through afterwards.
	if err := e.SubmitJobs([]*workload.Job{good(0), good(1)}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueIncludesPendingArrivals: jobs submitted with a future release
// date (not yet arrived in the cluster) must show up in the /queue
// waiting list, consistent with the /stats waiting count.
func TestQueueIncludesPendingArrivals(t *testing.T) {
	e, err := New(Config{M: 4, Policy: "fcfs", Dilation: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	// Released an hour of virtual time out: at 1x it cannot arrive
	// during the test.
	if _, err := submit(e, JobSpec{SeqTime: 10, MinProcs: 1, Release: 3600}); err != nil {
		t.Fatal(err)
	}
	snap, err := e.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Waiting) != 1 || snap.Waiting[0].ID != 0 {
		t.Fatalf("pending arrival missing from queue snapshot: %+v", snap)
	}
	stats, err := e.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Waiting != len(snap.Waiting) {
		t.Fatalf("stats.Waiting=%d but queue lists %d", stats.Waiting, len(snap.Waiting))
	}
}

// TestConcurrentSubmissions hammers the mailbox from many goroutines
// (run under -race in CI) and checks nothing is lost.
func TestConcurrentSubmissions(t *testing.T) {
	e, err := New(Config{M: 64, Policy: "easy"})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()

	const workers, per = 8, 50
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				j, err := JobSpec{SeqTime: 10, MinProcs: 1}.Job(w*per + i)
				if err == nil {
					err = e.SubmitJobs([]*workload.Job{j})
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	stats, err := e.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Submitted != workers*per || stats.Completed != workers*per {
		t.Fatalf("submitted=%d completed=%d, want %d", stats.Submitted, stats.Completed, workers*per)
	}
}
