package metrics

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func edgeJob(id int, release, seq float64, procs int, due float64) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Release: release, Weight: 1, DueDate: due,
		SeqTime: seq, MinProcs: procs, MaxProcs: procs, Model: workload.Linear{},
	}
}

// TestEmptyCompletions pins every aggregate on the empty slice: all must
// return zero (not NaN, not panic), since a freshly started gridd serves
// /stats before any job has completed.
func TestEmptyCompletions(t *testing.T) {
	rep := NewReport(nil, 8)
	checks := map[string]float64{
		"Makespan":              rep.Makespan,
		"SumCompletion":         rep.SumCompletion,
		"SumWeightedCompletion": rep.SumWeightedCompletion,
		"MeanFlow":              rep.MeanFlow,
		"MaxFlow":               rep.MaxFlow,
		"MeanStretch":           rep.MeanStretch,
		"MaxStretch":            rep.MaxStretch,
		"SumTardiness":          rep.SumTardiness,
		"Utilization":           rep.Utilization,
	}
	for name, v := range checks {
		if v != 0 || math.IsNaN(v) {
			t.Fatalf("%s(empty) = %v, want 0", name, v)
		}
	}
	if rep.N != 0 || rep.LateCount != 0 {
		t.Fatalf("NewReport(empty) = %+v", rep)
	}
}

// TestZeroDurationStretch covers jobs whose best possible execution time
// is zero (degenerate SeqTime): Stretch's flow/0 must be suppressed to 0
// rather than returning +Inf or NaN into MaxStretch.
func TestZeroDurationStretch(t *testing.T) {
	zero := &workload.Job{
		ID: 1, Kind: workload.Rigid, Release: 0, Weight: 1, DueDate: -1,
		SeqTime: 0, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
	}
	c := Completion{Job: zero, Start: 5, End: 5, Procs: 1}
	if s := c.Stretch(4); s != 0 {
		t.Fatalf("Stretch of zero-duration job = %v, want 0", s)
	}
	// Mixed with a normal job, the zero-duration one must not dominate.
	normal := Completion{Job: edgeJob(2, 0, 10, 1, -1), Start: 0, End: 20, Procs: 1}
	r := NewReport([]Completion{c, normal}, 4)
	if mx := r.MaxStretch; math.IsInf(mx, 1) || math.IsNaN(mx) || mx != 2 {
		t.Fatalf("MaxStretch with zero-duration job = %v, want 2", mx)
	}
	if mean := r.MeanStretch; math.IsNaN(mean) || mean != 1 {
		t.Fatalf("MeanStretch with zero-duration job = %v, want 1", mean)
	}
}

// TestZeroDurationCompletion: a job that starts and ends at the same
// instant contributes zero area and zero flow-from-start, and must keep
// Utilization finite.
func TestZeroDurationCompletion(t *testing.T) {
	cs := []Completion{
		{Job: edgeJob(1, 0, 10, 2, -1), Start: 3, End: 3, Procs: 2},
		{Job: edgeJob(2, 0, 12, 3, -1), Start: 0, End: 4, Procs: 3},
	}
	if u := NewReport(cs, 4).Utilization; math.IsNaN(u) || u != 12.0/16.0 {
		t.Fatalf("Utilization = %v, want %v", u, 12.0/16.0)
	}
	if f := cs[0].Flow(); f != 3 {
		t.Fatalf("Flow = %v, want 3 (End - Release)", f)
	}
}

// TestTardinessNoDueDate pins the DueDate = -1 convention: such jobs are
// never late no matter how long they run.
func TestTardinessNoDueDate(t *testing.T) {
	c := Completion{Job: edgeJob(1, 0, 10, 1, -1), Start: 0, End: 1e12, Procs: 1}
	if d := c.Tardiness(); d != 0 {
		t.Fatalf("Tardiness with DueDate=-1 = %v, want 0", d)
	}
	cs := []Completion{
		c,
		{Job: edgeJob(2, 0, 10, 1, 5), Start: 0, End: 8, Procs: 1},  // 3 late
		{Job: edgeJob(3, 0, 10, 1, 20), Start: 0, End: 8, Procs: 1}, // on time
	}
	r := NewReport(cs, 4)
	if n := r.LateCount; n != 1 {
		t.Fatalf("LateCount = %d, want 1", n)
	}
	if s := r.SumTardiness; s != 3 {
		t.Fatalf("SumTardiness = %v, want 3", s)
	}
}
