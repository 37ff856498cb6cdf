package batch

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

func onlineInstance(seed uint64, n, m int, rate float64) []*workload.Job {
	rng := stats.NewRNG(seed)
	jobs := make([]*workload.Job, n)
	clock := 0.0
	for i := range jobs {
		clock += rng.Exp(rate)
		model := workload.SpeedupModel(workload.Amdahl{Alpha: rng.Range(0.02, 0.3)})
		seq := rng.Range(1, 60)
		maxP := rng.IntRange(1, m)
		jobs[i] = &workload.Job{
			ID: i, Kind: workload.Moldable, Weight: 1, DueDate: -1,
			Release: clock, SeqTime: seq, MinProcs: 1, MaxProcs: maxP,
			Model: model, Times: workload.MakeTable(model, seq, maxP),
		}
	}
	return jobs
}

func TestOnlineEmpty(t *testing.T) {
	res, err := OnlineMoldable(nil, 8, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Schedule.Allocs) != 0 || len(res.Batches) != 0 {
		t.Fatal("empty instance produced allocations")
	}
}

func TestOnlineRespectsReleases(t *testing.T) {
	jobs := onlineInstance(1, 30, 8, 0.2)
	res, err := OnlineMoldable(jobs, 8, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err) // Validate includes the release check
	}
	if err := res.Schedule.Covers(jobs); err != nil {
		t.Fatal(err)
	}
	if err := checkBatches(res); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineBatchesDoNotOverlap(t *testing.T) {
	jobs := onlineInstance(2, 50, 16, 0.5)
	res, err := OnlineMoldable(jobs, 16, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Batches); i++ {
		if res.Batches[i].Start < res.Batches[i-1].End-1e-9 {
			t.Fatalf("batch %d starts at %v before previous end %v",
				i, res.Batches[i].Start, res.Batches[i-1].End)
		}
	}
	total := 0
	for _, b := range res.Batches {
		total += b.JobCount
	}
	if total != len(jobs) {
		t.Fatalf("batches covered %d of %d jobs", total, len(jobs))
	}
}

func TestOnlineSingleBatchWhenAllAtZero(t *testing.T) {
	jobs := onlineInstance(3, 20, 8, 1000) // arrivals essentially at 0
	for _, j := range jobs {
		j.Release = 0
	}
	res, err := OnlineMoldable(jobs, 8, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 1 {
		t.Fatalf("offline-like instance used %d batches, want 1", len(res.Batches))
	}
}

func TestOnlineRatioEnvelope(t *testing.T) {
	// §4.2: batches over MRT give 3 + ε for Cmax with release dates; we
	// measure against our lower bound — the measured ratio must stay well
	// inside the theoretical envelope on random instances.
	worst := 0.0
	for seed := uint64(0); seed < 8; seed++ {
		jobs := onlineInstance(seed, 60, 16, 0.3)
		res, err := OnlineMoldable(jobs, 16, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		lb := lowerbound.Cmax(jobs, 16)
		ratio := res.Schedule.Makespan() / lb
		if ratio > worst {
			worst = ratio
		}
	}
	if worst > 2*1.5+0.02 {
		t.Fatalf("worst online ratio %v exceeds 2ρ = 3 + ε", worst)
	}
	if worst < 1 {
		t.Fatalf("ratio %v below 1 — bound broken", worst)
	}
}

func TestOnlineNilOffline(t *testing.T) {
	if _, err := Online(nil, 8, nil); err == nil {
		t.Fatal("nil offline scheduler accepted")
	}
}

func TestOnlineOfflineError(t *testing.T) {
	bad := func([]*workload.Job, int) (*sched.Schedule, error) {
		return nil, errFake
	}
	jobs := onlineInstance(4, 5, 4, 1)
	if _, err := Online(jobs, 4, bad); err == nil {
		t.Fatal("offline error not propagated")
	}
}

var errFake = &fakeError{}

type fakeError struct{}

func (*fakeError) Error() string { return "fake" }

func TestOnlineDroppingOfflineRejected(t *testing.T) {
	// An offline scheduler that drops jobs must be caught.
	drop := func(jobs []*workload.Job, m int) (*sched.Schedule, error) {
		s := sched.New(m)
		if len(jobs) > 1 {
			jobs = jobs[:1]
		}
		for _, j := range jobs {
			s.Add(sched.Alloc{Job: j, Start: 0, Procs: j.MinProcs})
		}
		return s, nil
	}
	jobs := onlineInstance(5, 6, 4, 1000)
	if _, err := Online(jobs, 4, drop); err == nil {
		t.Fatal("dropping offline scheduler accepted")
	}
}

// Property: the batch framework always yields valid complete schedules
// whose batches partition the job set, at any arrival intensity.
func TestOnlineProperty(t *testing.T) {
	f := func(seed uint64, nRaw, mRaw uint8, rateRaw float64) bool {
		n := int(nRaw%30) + 1
		m := int(mRaw%14) + 2
		rate := 0.05 + float64(uint8(rateRaw*100))*0.01
		jobs := onlineInstance(seed, n, m, rate)
		res, err := OnlineMoldable(jobs, m, 0.02)
		if err != nil {
			return false
		}
		if res.Schedule.Validate() != nil || res.Schedule.Covers(jobs) != nil {
			return false
		}
		total := 0
		for _, b := range res.Batches {
			total += b.JobCount
		}
		return total == n && checkBatches(res) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// checkBatches requires the batches to be disjoint and ordered.
func checkBatches(r *Result) error {
	prev := math.Inf(-1)
	for i, b := range r.Batches {
		if b.Start < prev-1e-9 {
			return fmt.Errorf("batch: batch %d starts at %v before previous end %v", i, b.Start, prev)
		}
		prev = b.End
	}
	return nil
}
