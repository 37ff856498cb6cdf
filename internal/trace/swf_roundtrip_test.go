package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// completionRecords derives the SWF record of each completion.
func completionRecords(cs []metrics.Completion) []SWFRecord {
	recs := make([]SWFRecord, len(cs))
	for i, c := range cs {
		recs[i] = SWFRecord{
			ID: c.Job.ID, Submit: c.Job.Release,
			Wait: c.Start - c.Job.Release, Runtime: c.End - c.Start,
			Procs: c.Procs, Weight: c.Job.Weight,
		}
	}
	return recs
}

// TestSWFRoundTripByteStable is the write→read→write property: for
// randomized record sets, parsing a written trace and writing it again
// must reproduce the bytes exactly. The record layer (not Completion) is
// the canonical unit precisely because wait = Start - Release does not
// survive float re-derivation; this pins that design.
func TestSWFRoundTripByteStable(t *testing.T) {
	rng := stats.NewRNG(99)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntRange(1, 40)
		recs := make([]SWFRecord, n)
		for i := range recs {
			recs[i] = SWFRecord{
				ID: i,
				// Adversarial magnitudes: tiny, huge and plain values mixed,
				// the shapes that expose %g precision drift.
				Submit:  rng.LogNormal(0, 8),
				Wait:    rng.LogNormal(0, 8),
				Runtime: rng.LogNormal(0, 8),
				Procs:   rng.IntRange(1, 512),
				Weight:  float64(rng.Zipf(1.1, 10)),
			}
		}
		var first bytes.Buffer
		if err := writeSWF(&first, recs); err != nil {
			t.Fatal(err)
		}
		parsed, err := ReadSWFRecords(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(parsed) != n {
			t.Fatalf("trial %d: parsed %d of %d records", trial, len(parsed), n)
		}
		var second bytes.Buffer
		if err := writeSWF(&second, parsed); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("trial %d: write→read→write not byte-stable:\n--- first ---\n%s--- second ---\n%s",
				trial, first.String(), second.String())
		}
	}
}

// TestSWFRoundTripFromSimulation runs real workloads through the cluster
// simulator and round-trips the resulting completions — the end-to-end
// path gridctl sim -swf and loadgen -swf users exercise.
func TestSWFRoundTripFromSimulation(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		jobs := workload.Parallel(workload.GenConfig{N: 60, M: 16, Seed: seed, ArrivalRate: 0.3})
		sim, err := cluster.New(des.New(), 16, 1, cluster.EASYPolicy{}, cluster.KillNewest)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if err := sim.Submit(j); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		var first bytes.Buffer
		if err := writeSWF(&first, completionRecords(sim.Completions())); err != nil {
			t.Fatal(err)
		}
		recs, err := ReadSWFRecords(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := writeSWF(&second, recs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("seed %d: simulated trace not byte-stable", seed)
		}
		// And the job view still parses into runnable rigid jobs.
		parsed, err := ReadSWF(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(parsed) != len(jobs) {
			t.Fatalf("seed %d: %d jobs parsed, want %d", seed, len(parsed), len(jobs))
		}
		for _, j := range parsed {
			if err := j.Validate(); err != nil {
				t.Fatalf("seed %d: parsed job invalid: %v", seed, err)
			}
		}
	}
}

// TestSWFReplayStopsAtNonFiniteRecord: a NaN or infinite submit, runtime
// or weight parses (strconv reads it) but becomes no job, so replaying
// the archive through the simulator stops with an error naming the
// record once the jobs before it are done — not with a starved queue,
// and not silently after a truncated stream.
func TestSWFReplayStopsAtNonFiniteRecord(t *testing.T) {
	for _, line2 := range []string{"2 1 0 NaN 1 1", "2 1 0 +Inf 1 1", "2 NaN 0 5 1 1", "2 -Inf 0 5 1 1", "2 1 0 5 1 NaN"} {
		sim, err := cluster.New(des.New(), 4, 1, cluster.EASYPolicy{}, cluster.KillNewest)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Stream(NewSWFJobSource(strings.NewReader("1 0 0 5 1 1\n" + line2 + "\n3 2 0 5 1 1\n"))); err != nil {
			t.Fatal(err)
		}
		err = sim.Run()
		if err == nil || !strings.Contains(err.Error(), "trace: record 2:") || !strings.Contains(err.Error(), "not finite") {
			t.Fatalf("%q: Run = %v, want the record 2 error", line2, err)
		}
		if sim.CompletedCount() != 1 {
			t.Fatalf("%q: %d jobs completed, want 1", line2, sim.CompletedCount())
		}
	}
}

// TestRecordOfCompletion checks the Completion→record derivation and
// the job a record materializes.
func TestRecordOfCompletion(t *testing.T) {
	j := &workload.Job{ID: 4, Kind: workload.Rigid, Release: 10, Weight: 2,
		DueDate: -1, SeqTime: 30, MinProcs: 3, MaxProcs: 3, Model: workload.Linear{}}
	rec := completionRecords([]metrics.Completion{{Job: j, Start: 15, End: 25, Procs: 3}})[0]
	if rec.ID != 4 || rec.Submit != 10 || rec.Wait != 5 || rec.Runtime != 10 || rec.Procs != 3 || rec.Weight != 2 {
		t.Fatalf("record = %+v", rec)
	}
	var job workload.Job
	if err := rec.fill(&job); err != nil {
		t.Fatal(err)
	}
	if job.SeqTime != 30 || job.MinProcs != 3 || job.Release != 10 {
		t.Fatalf("record job = %+v", job)
	}
	if err := (SWFRecord{ID: 1, Runtime: 0, Procs: 1}).fill(&job); err == nil {
		t.Fatal("zero-runtime record materialized a job")
	}
	if job.ID != 4 || job.SeqTime != 30 {
		t.Fatalf("a refused record wrote the job: %+v", job)
	}
}
