package faults

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/lowerbound"
	"repro/internal/scenario"
	"repro/internal/workload"
)

func rjob(id int, dur float64, procs int, release float64) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1, Release: release,
		SeqTime: dur * float64(procs), MinProcs: procs, MaxProcs: procs,
		Model: workload.Linear{},
	}
}

func newSim(t *testing.T, m int) *cluster.Sim {
	t.Helper()
	s, err := cluster.New(des.New(), m, 1, cluster.EASYPolicy{}, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAttachValidates(t *testing.T) {
	bad := []Plan{
		{},         // empty plan
		{MTBF: -1}, // negative
		{MTTR: 5},  // MTTR without MTBF
		{Outages: []scenario.Outage{{Start: 5, End: 5}}},                         // empty window
		{Outages: []scenario.Outage{{Start: -1, End: 5}}},                        // negative start
		{Trace: []scenario.AvailStep{{Time: 10, Avail: 4}, {Time: 5, Avail: 8}}}, // backwards
		{Partitions: []scenario.PartitionWindow{{Start: 0, End: 10}}},            // no clusters
	}
	for i, p := range bad {
		if _, err := Attach(newSim(t, 8), p); err == nil {
			t.Errorf("plan %d accepted: %+v", i, p)
		}
	}
	if _, err := Attach(nil, Plan{MTBF: 100}); err == nil {
		t.Error("nil sim accepted")
	}
}

// runPlan drives one workload under a plan and returns the sim.
func runPlan(t *testing.T, p Plan, n int) *cluster.Sim {
	t.Helper()
	s := newSim(t, 8)
	if _, err := Attach(s, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Submit(rjob(i+1, 15, 2, float64(5*i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChurnEndToEnd: seeded churn crashes fire, repairs restore
// capacity, all local work completes, and the DES drains (the stop
// condition keeps a self-rescheduling process from running forever).
func TestChurnEndToEnd(t *testing.T) {
	p := Plan{MTBF: 30, MTTR: 10, CrashProcs: 4, Seed: 3}
	s := runPlan(t, p, 40)
	fs := s.FaultStats()
	if fs.Crashes == 0 {
		t.Fatal("churn produced no crashes")
	}
	if got := len(s.Completions()); got != 40 {
		t.Fatalf("completions = %d, want 40", got)
	}
	if s.DES.Pending() != 0 {
		t.Fatalf("DES still holds %d events after Run", s.DES.Pending())
	}
}

// TestChurnDeterminism: equal plan and seed, equal fault history and
// completion records.
func TestChurnDeterminism(t *testing.T) {
	p := Plan{MTBF: 25, MTTR: 8, CrashProcs: 3, Seed: 11}
	a, b := runPlan(t, p, 30), runPlan(t, p, 30)
	fa, fb := a.FaultStats(), b.FaultStats()
	if fa != fb {
		t.Fatalf("fault stats diverge: %+v vs %+v", fa, fb)
	}
	ca, cb := a.Completions(), b.Completions()
	if len(ca) != len(cb) {
		t.Fatalf("completion counts diverge: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Job.ID != cb[i].Job.ID || ca[i].Start != cb[i].Start || ca[i].End != cb[i].End {
			t.Fatalf("completion %d diverges: %+v vs %+v", i, ca[i], cb[i])
		}
	}
}

// TestSeedChangesSchedule: a different fault seed must produce a
// different crash history on a churn-heavy plan (sanity check that the
// seed actually feeds the RNG).
func TestSeedChangesSchedule(t *testing.T) {
	a := runPlan(t, Plan{MTBF: 20, MTTR: 10, CrashProcs: 4, Seed: 1}, 40).FaultStats()
	b := runPlan(t, Plan{MTBF: 20, MTTR: 10, CrashProcs: 4, Seed: 2}, 40).FaultStats()
	if a == b {
		t.Fatalf("seeds 1 and 2 produced identical fault histories: %+v", a)
	}
}

// TestMaxCrashes: the churn process stops at the cap.
func TestMaxCrashes(t *testing.T) {
	p := Plan{MTBF: 5, MTTR: 2, CrashProcs: 1, MaxCrashes: 3, Seed: 9}
	s := newSim(t, 8)
	e, err := Attach(s, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := s.Submit(rjob(i+1, 10, 2, float64(3*i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if e.crashes != 3 {
		t.Fatalf("churn crashes = %d, want exactly 3", e.crashes)
	}
}

// TestOutagesAndTrace: scheduled windows fire as ordinary DES events.
func TestOutagesAndTrace(t *testing.T) {
	p := Plan{
		Outages: []scenario.Outage{{Start: 10, End: 30, Procs: 4}},
		Trace:   []scenario.AvailStep{{Time: 50, Avail: 2}, {Time: 60, Avail: 8}},
	}
	s := runPlan(t, p, 20)
	fs := s.FaultStats()
	if fs.Crashes != 1 || fs.Repairs != 1 {
		t.Fatalf("fault stats = %+v, want 1 crash and 1 repair from the outage", fs)
	}
	if fs.DownProcSeconds < 4*20+6*10 {
		t.Fatalf("down proc-seconds = %v, want at least %v", fs.DownProcSeconds, 4*20+6*10)
	}
	if got := len(s.Completions()); got != 20 {
		t.Fatalf("completions = %d, want 20", got)
	}
}

// --- twin ----------------------------------------------------------

func TestAvgAvailabilityExact(t *testing.T) {
	m := 10
	cases := []struct {
		name    string
		plan    Plan
		horizon float64
		want    float64
	}{
		{"empty", Plan{}, 100, 1},
		{"churn steady state", Plan{MTBF: 100, MTTR: 10, CrashProcs: 2}, 1000, 1 - (2.0*10/100)/10},
		{"outage half horizon", Plan{Outages: []scenario.Outage{{Start: 0, End: 50, Procs: 10}}}, 100, 0.5},
		{"outage clipped", Plan{Outages: []scenario.Outage{{Start: 50, End: 1e9, Procs: 5}}}, 100, 0.75},
		{"trace tail", Plan{Trace: []scenario.AvailStep{{Time: 50, Avail: 5}}}, 100, 1 - 0.25},
	}
	for _, tc := range cases {
		if got := AvgAvailability(tc.plan, m, tc.horizon); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: availability = %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := AvgAvailability(Plan{Outages: []scenario.Outage{{Start: 0, End: 100}}}, m, 100); got != 1e-3 {
		t.Errorf("total blackout availability = %v, want the 1e-3 floor", got)
	}
}

// TestPredictCmaxLowerBound: the twin never exceeds the simulated
// makespan and never goes below the healthy bound.
func TestPredictCmaxLowerBound(t *testing.T) {
	var jobs []*workload.Job
	for i := 0; i < 60; i++ {
		jobs = append(jobs, rjob(i+1, 15, 2, float64(i)))
	}
	plans := []Plan{
		{},
		{MTBF: 40, MTTR: 15, CrashProcs: 4, Seed: 5},
		{Outages: []scenario.Outage{{Start: 20, End: 200, Procs: 4}}},
	}
	healthy := lowerbound.Cmax(jobs, 8)
	for i, p := range plans {
		pred := PredictCmax(jobs, 8, p)
		if pred < healthy {
			t.Fatalf("plan %d: prediction %v below healthy bound %v", i, pred, healthy)
		}
		s := newSim(t, 8)
		if i > 0 {
			if _, err := Attach(s, p); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range jobs {
			jc := *j
			if err := s.Submit(&jc); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		sim := s.Report().Makespan
		if sim < pred-1e-9 {
			t.Fatalf("plan %d: simulated makespan %v beats the lower bound %v", i, sim, pred)
		}
		if e := PredictionError(sim, pred); e < -1e-12 {
			t.Fatalf("plan %d: negative prediction error %v", i, e)
		}
	}
}

// TestPredictCmaxDiscounts: a heavy churn plan must lift the prediction
// above the healthy bound when the area term dominates.
func TestPredictCmaxDiscounts(t *testing.T) {
	var jobs []*workload.Job
	for i := 0; i < 80; i++ {
		jobs = append(jobs, rjob(i+1, 50, 4, 0)) // offline, area-dominated
	}
	healthy := lowerbound.Cmax(jobs, 8)
	pred := PredictCmax(jobs, 8, Plan{MTBF: 100, MTTR: 50, CrashProcs: 4})
	if pred <= healthy {
		t.Fatalf("prediction %v does not discount availability (healthy %v)", pred, healthy)
	}
}

func TestPredictionError(t *testing.T) {
	if e := PredictionError(110, 100); math.Abs(e-0.1) > 1e-12 {
		t.Fatalf("error = %v, want 0.1", e)
	}
	if e := PredictionError(5, 0); e != 0 {
		t.Fatalf("error with zero prediction = %v, want 0", e)
	}
}
