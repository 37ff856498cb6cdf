package cluster

import (
	"testing"

	"repro/internal/des"
	"repro/internal/workload"
)

func snapJob(id int, dur float64, procs int, release float64) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1, Release: release,
		SeqTime: dur * float64(procs), MinProcs: procs, MaxProcs: procs,
		Model: workload.Linear{},
	}
}

// TestLoadConsistency checks Load against the other accessors at
// quiescent points, with the queued-work tally on.
func TestLoadConsistency(t *testing.T) {
	sim, err := New(des.New(), 8, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	ld := sim.Load()
	if ld.M != 8 || ld.Speed != 1 || ld.Free != 8 || ld.Queued != 0 {
		t.Fatalf("fresh load %+v", ld)
	}
	sim.TallyQueuedWork()
	// Two jobs: one runs (4 procs), one waits behind it (8 procs).
	if err := sim.Submit(snapJob(1, 10, 4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Submit(snapJob(2, 5, 8, 0)); err != nil {
		t.Fatal(err)
	}
	for _, task := range []BETask{{BagID: 0, Duration: 3}, {BagID: 0, Duration: 3}} {
		sim.SubmitBestEffort(task)
	}
	if err := sim.DES.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	ld = sim.Load()
	if ld.Free != sim.free() || ld.Queued != sim.QueueLength() ||
		ld.BEQueued != sim.BestEffortQueueLength() || ld.BEActive != sim.BestEffortActive() {
		t.Fatalf("load %+v diverges from accessors (free=%d queued=%d beq=%d bea=%d)",
			ld, sim.free(), sim.QueueLength(), sim.BestEffortQueueLength(), sim.BestEffortActive())
	}
	if got, want := ld.QueuedWork, sim.QueuedWork(); got != want {
		t.Fatalf("tallied queued work %v, accessor %v", got, want)
	}
	if ld.NormLoad() != want8(ld.QueuedWork) {
		t.Fatalf("norm load %v", ld.NormLoad())
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	ld = sim.Load()
	if ld.Free != 8 || ld.Queued != 0 || ld.QueuedWork != 0 || ld.BEActive != 0 {
		t.Fatalf("drained load %+v", ld)
	}
}

func want8(w float64) float64 { return w / 8 }

// TestLoadTallyTurnedOnLate: the tally turned on while jobs wait is
// seeded from the queue, so Load after the next event — which starts
// two of them — still equals the exact recompute. Every work is a whole
// number, so the two agree exactly.
func TestLoadTallyTurnedOnLate(t *testing.T) {
	sim, err := New(des.New(), 8, 1, FCFSPolicy{}, KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []*workload.Job{snapJob(0, 10, 8, 0), snapJob(1, 3, 4, 0), snapJob(2, 5, 4, 0), snapJob(3, 7, 4, 0), snapJob(4, 2, 4, 0)}
	if err := submitAll(sim, jobs); err != nil {
		t.Fatal(err)
	}
	if err := sim.DES.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	if sim.QueueLength() != 4 {
		t.Fatalf("%d jobs queued at 1, want 4 behind the running one", sim.QueueLength())
	}
	sim.TallyQueuedWork()
	if got, want := sim.Load().QueuedWork, sim.QueuedWork(); got != want || want != 68 {
		t.Fatalf("tallied queued work %v when the tally starts, accessor %v, want 68", got, want)
	}
	next, ok := sim.DES.PeekTime()
	if !ok {
		t.Fatal("no event pending")
	}
	if err := sim.DES.RunUntil(next); err != nil {
		t.Fatal(err)
	}
	if sim.QueueLength() != 2 {
		t.Fatalf("%d jobs queued after the event at %v, want 2", sim.QueueLength(), next)
	}
	if got, want := sim.Load().QueuedWork, sim.QueuedWork(); got != want {
		t.Fatalf("tallied queued work %v after the event at %v, accessor %v", got, next, want)
	}
}
