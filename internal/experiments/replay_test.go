package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestReplayKindDeterministic: the replay kind is a pure function of
// (spec, seed) — two runs, including a parallel one, produce identical
// cells — and streaming changes nothing about the scores: a ring-retain
// run equals the discard run.
func TestReplayKindDeterministic(t *testing.T) {
	a, err := catalogRun("replay", 7, scenario.Scale{JobFactor: 20})
	if err != nil {
		t.Fatal(err)
	}
	b, err := catalogRun("replay", 7, scenario.Scale{JobFactor: 20, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) == 0 || len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if !reflect.DeepEqual(a.Cells[i].Values, b.Cells[i].Values) {
			t.Fatalf("cell %d diverged: %v vs %v", i, a.Cells[i].Values, b.Cells[i].Values)
		}
	}

	spec, _ := scenario.Lookup("replay")
	ring := scenario.New("replay-ring", "replay",
		scenario.WithDesc("ring variant"),
		scenario.WithWorkload(*spec.Workload),
		scenario.WithParam("retain", "ring"), scenario.WithParam("ring", 16))
	c, err := scenario.Run(ring, scenario.RunOptions{Seed: 7, Scale: scenario.Scale{JobFactor: 20}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		if !reflect.DeepEqual(a.Cells[i].Values, c.Cells[i].Values) {
			t.Fatalf("retention changed scores at cell %d: %v vs %v", i, a.Cells[i].Values, c.Cells[i].Values)
		}
	}
}

// TestReplayKindSWF: params.swf streams a trace file; the resulting
// row matches replaying the same jobs materialized.
func TestReplayKindSWF(t *testing.T) {
	jobs := workload.Sequential(workload.GenConfig{N: 80, M: 8, Seed: 3, ArrivalRate: 1})
	recs := make([]trace.SWFRecord, len(jobs))
	for i, j := range jobs {
		recs[i] = trace.SWFRecord{ID: j.ID, Submit: j.Release, Wait: 0,
			Runtime: j.SeqTime, Procs: 1, Weight: j.Weight}
	}
	path := filepath.Join(t.TempDir(), "trace.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewSWFWriter(f)
	for _, rec := range recs {
		w.Write(rec) //nolint:errcheck // sticky, returned by Flush
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	spec := &scenario.Spec{ID: "replay-swf", Kind: "replay", Desc: "swf variant",
		Policies: []string{"fcfs", "easy"}, Platform: &scenario.Platform{M: 8},
		Params: map[string]any{"swf": path}}
	res, err := scenario.Run(spec, scenario.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(res.Cells))
	}
	for _, cell := range res.Cells {
		if got := cell.Values[1]; got != 80 {
			t.Fatalf("row %v completed %v jobs, want 80", cell.Values[0], got)
		}
	}

	bad := &scenario.Spec{ID: "replay-missing", Kind: "replay", Desc: "missing file",
		Policies: []string{"fcfs"},
		Params:   map[string]any{"swf": filepath.Join(t.TempDir(), "absent.swf")}}
	if _, err := scenario.Run(bad, scenario.RunOptions{Seed: 1}); err == nil {
		t.Fatal("missing trace file accepted")
	}
}
