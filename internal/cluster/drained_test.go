package cluster

import (
	"errors"
	"testing"

	"repro/internal/des"
	"repro/internal/workload"
)

func rigidJob(id int, seq float64, procs int) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1,
		SeqTime: seq, MinProcs: procs, MaxProcs: procs, Model: workload.Linear{},
	}
}

// TestSubmitAfterRunDrained pins the ErrDrained contract: once Run has
// returned, Submit must refuse instead of scheduling
// events that will never fire.
func TestSubmitAfterRunDrained(t *testing.T) {
	s, err := New(des.New(), 4, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(rigidJob(0, 10, 2)); err != nil {
		t.Fatal(err)
	}
	if s.Drained() {
		t.Fatal("drained before Run")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Drained() {
		t.Fatal("not drained after Run")
	}
	if err := s.Submit(rigidJob(1, 10, 2)); !errors.Is(err, ErrDrained) {
		t.Fatalf("Submit after Run = %v, want ErrDrained", err)
	}
	if got := len(s.Completions()); got != 1 {
		t.Fatalf("%d completions after rejected submissions, want 1", got)
	}
}

// TestDrainWithoutRun covers the service path: Drain flips the guard
// without running events, so a self-driven simulation can stop accepting
// work before fast-forwarding.
func TestDrainWithoutRun(t *testing.T) {
	s, err := New(des.New(), 4, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(rigidJob(0, 10, 2)); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if err := s.Submit(rigidJob(1, 10, 2)); !errors.Is(err, ErrDrained) {
		t.Fatalf("Submit after Drain = %v, want ErrDrained", err)
	}
	// The already-accepted job still completes.
	if err := s.DES.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Completions()); got != 1 {
		t.Fatalf("%d completions, want 1", got)
	}
}

// TestQueuedAndRunningSnapshots covers the observer accessors the gridd
// service exposes through /queue.
func TestQueuedAndRunningSnapshots(t *testing.T) {
	s, err := New(des.New(), 2, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	// Two 2-wide jobs: one runs, one waits.
	if err := s.Submit(rigidJob(0, 100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(rigidJob(1, 100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.DES.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	running := s.Running()
	queued := s.Queued()
	if len(running) != 1 || running[0].ID != 0 {
		t.Fatalf("running snapshot: %+v", running)
	}
	if len(queued) != 1 || queued[0].ID != 1 {
		t.Fatalf("queued snapshot: %+v", queued)
	}
	// Snapshots are copies: mutating them must not disturb the simulator.
	queued[0] = nil
	if s.QueueLength() != 1 || s.Queued()[0] == nil {
		t.Fatal("Queued() exposed internal state")
	}
}
