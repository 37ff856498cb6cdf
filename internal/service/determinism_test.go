package service

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceJobs builds a workload, round-trips it through the SWF format
// (exactly what a user replaying a trace file does), and returns two
// independent copies of the resulting rigid jobs.
func traceJobs(t *testing.T, seed uint64, n, m int) (forService, forOffline []*workload.Job) {
	t.Helper()
	gen := workload.Parallel(workload.GenConfig{N: n, M: m, Seed: seed, ArrivalRate: 0.2})
	var buf bytes.Buffer
	// Freeze the generated workload as a trace: run it through FCFS once
	// to obtain completions, the only thing an SWF record holds, and
	// write them in job ID order.
	sim, err := cluster.New(des.New(), m, 1, cluster.FCFSPolicy{}, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range gen {
		if err := sim.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.SWFRecord, len(gen))
	for _, c := range sim.Completions() {
		recs[c.Job.ID] = trace.SWFRecord{
			ID: c.Job.ID, Submit: c.Job.Release, Wait: c.Start - c.Job.Release,
			Runtime: c.End - c.Start, Procs: c.Procs, Weight: c.Job.Weight,
		}
	}
	w := trace.NewSWFWriter(&buf)
	for _, rec := range recs {
		w.Write(rec) //nolint:errcheck // sticky, returned by Flush
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	a, err := trace.ReadSWF(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.ReadSWF(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// completionIDs returns the engine's job IDs in completion-event order
// (the determinism witness compared against offline runs).
func completionIDs(t *testing.T, e *Engine) []int {
	t.Helper()
	cs, err := e.Completions()
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(cs))
	for i, c := range cs {
		ids[i] = c.Job.ID
	}
	return ids
}

// TestServiceMatchesOfflineOrder is the determinism acceptance check: an
// SWF trace replayed through the live service must complete jobs in
// exactly the same order as an offline cluster.Sim run at the same seed,
// for every online policy in the registry.
func TestServiceMatchesOfflineOrder(t *testing.T) {
	const n, m = 200, 32
	for _, entry := range registry.All() {
		if !entry.Caps.Online {
			continue
		}
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			svcJobs, offJobs := traceJobs(t, 7, n, m)

			// Offline reference: plain batch engine.
			sim, err := cluster.New(des.New(), m, 1, entry.NewPolicy(), cluster.KillNewest)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range offJobs {
				if err := sim.Submit(j); err != nil {
					t.Fatal(err)
				}
			}
			if err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			var want []int
			for _, c := range sim.Completions() {
				want = append(want, c.Job.ID)
			}

			// Live service: submit the same stream, drain, compare.
			e, err := New(Config{M: m, Policy: entry.Name})
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Stop()
			if err := e.SubmitJobs(svcJobs); err != nil {
				t.Fatal(err)
			}
			stats, err := e.Drain(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Completed != len(svcJobs) {
				t.Fatalf("service completed %d of %d jobs", stats.Completed, len(svcJobs))
			}
			got := completionIDs(t, e)
			if len(got) != len(want) {
				t.Fatalf("completion counts differ: service %d, offline %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("completion order diverges at position %d: service job %d, offline job %d",
						i, got[i], want[i])
				}
			}
		})
	}
}

// TestServiceDeterministicAcrossRuns replays the same trace through two
// independent engines and requires identical completion orders (no
// wall-clock leakage into the virtual schedule).
func TestServiceDeterministicAcrossRuns(t *testing.T) {
	run := func() []int {
		jobs, _ := traceJobs(t, 11, 150, 16)
		e, err := New(Config{M: 16, Policy: "easy"})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		defer e.Stop()
		if err := e.SubmitJobs(jobs); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return completionIDs(t, e)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("orders differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("orders diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
