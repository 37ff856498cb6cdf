package metrics

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func job(id int, release, weight, due, seq float64) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Moldable, Release: release, Weight: weight,
		DueDate: due, SeqTime: seq, MinProcs: 1, MaxProcs: 4,
		Model: workload.Linear{},
	}
}

func sample() []Completion {
	return []Completion{
		{Job: job(1, 0, 1, -1, 8), Start: 0, End: 10, Procs: 2},
		{Job: job(2, 5, 3, 12, 4), Start: 6, End: 14, Procs: 1},
		{Job: job(3, 2, 2, 100, 2), Start: 3, End: 5, Procs: 4},
	}
}

func TestMakespan(t *testing.T) {
	if got := NewReport(sample(), 4).Makespan; got != 14 {
		t.Fatalf("Makespan = %v", got)
	}
	if NewReport(nil, 4).Makespan != 0 {
		t.Fatal("empty Makespan != 0")
	}
}

func TestSums(t *testing.T) {
	r := NewReport(sample(), 4)
	if got := r.SumCompletion; got != 29 {
		t.Fatalf("ΣC = %v", got)
	}
	if got := r.SumWeightedCompletion; got != 10+42+10 {
		t.Fatalf("ΣwC = %v", got)
	}
	// flows: 10-0, 14-5, 5-2 = 10, 9, 3; ΣF = 22, exactly.
	if got := r.MeanFlow; got != 22.0/3 {
		t.Fatalf("meanF = %v, want ΣF = 22 over 3 jobs", got)
	}
	if got := r.MaxFlow; got != 10 {
		t.Fatalf("maxF = %v", got)
	}
}

func TestStretch(t *testing.T) {
	cs := sample()
	// job1: min time on 4 procs = 8/4 = 2; flow 10; stretch 5.
	if got := cs[0].Stretch(4); math.Abs(got-5) > 1e-12 {
		t.Fatalf("stretch = %v", got)
	}
	r := NewReport(cs, 4)
	if got := r.MaxStretch; math.Abs(got-9.0) > 1e-12 {
		// job2: min time 1, flow 9 → 9; job3: min 0.5, flow 3 → 6.
		t.Fatalf("MaxStretch = %v", got)
	}
	want := (5.0 + 9.0 + 6.0) / 3
	if got := r.MeanStretch; math.Abs(got-want) > 1e-12 {
		t.Fatalf("MeanStretch = %v, want %v", got, want)
	}
}

func TestTardiness(t *testing.T) {
	r := NewReport(sample(), 4)
	// job1 no due date; job2 due 12 end 14 → 2; job3 due 100 → 0.
	if got := r.SumTardiness; got != 2 {
		t.Fatalf("ΣT = %v", got)
	}
	if got := r.LateCount; got != 1 {
		t.Fatalf("late = %d", got)
	}
}

func TestUtilization(t *testing.T) {
	// areas: 2*10 + 1*8 + 4*2 = 36; horizon 14 * m.
	if got := NewReport(sample(), 4).Utilization; math.Abs(got-36.0/56) > 1e-12 {
		t.Fatalf("Utilization = %v", got)
	}
	if NewReport(nil, 4).Utilization != 0 {
		t.Fatal("empty utilization != 0")
	}
}

func TestReport(t *testing.T) {
	r := NewReport(sample(), 4)
	if r.N != 3 || r.Makespan != 14 || r.LateCount != 1 {
		t.Fatalf("report = %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestStretchDegenerate(t *testing.T) {
	// A job whose min time is +Inf (cannot run) contributes stretch 0.
	j := &workload.Job{
		ID: 9, Kind: workload.Rigid, SeqTime: 5, MinProcs: 8, MaxProcs: 8,
		Model: workload.Linear{},
	}
	c := Completion{Job: j, Start: 0, End: 10, Procs: 8}
	if got := c.Stretch(4); got != 0 {
		t.Fatalf("degenerate stretch = %v", got)
	}
}
