package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runtrace"
	"repro/internal/scenario"
)

// tracedJSONL runs a spec and serializes its recorded traces.
func tracedJSONL(t *testing.T, spec *scenario.Spec, seed uint64, workers int) []byte {
	t.Helper()
	res, err := scenario.Run(spec, scenario.RunOptions{
		Seed:  seed,
		Scale: scenario.Scale{JobFactor: 20, Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) == 0 {
		t.Fatal("traced run produced no traces")
	}
	var buf bytes.Buffer
	if err := runtrace.WriteJSONL(&buf, res.Traces); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceDeterminism: for a fixed seed the serialized trace is
// byte-identical between the sequential runner and the worker pool —
// the same contract the result tables honour — both on a healthy
// online run and under fault churn.
func TestTraceDeterminism(t *testing.T) {
	churn, ok := scenario.Lookup("churn")
	if !ok {
		t.Fatal("churn spec not registered")
	}
	tracedChurn := *churn // shallow copy: never mutate the shared catalog spec
	tracedChurn.Trace = &scenario.Trace{Events: true}
	specs := map[string]*scenario.Spec{
		"healthy-online": {ID: "trace-online", Kind: "online",
			Workload: &scenario.Workload{N: 200, M: 32, RigidFraction: 0.5},
			Policies: []string{"fcfs", "easy"},
			Params:   map[string]any{"rates": []float64{0.1, 0.3}},
			Trace:    &scenario.Trace{Events: true},
		},
		"churn": &tracedChurn,
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			seq := tracedJSONL(t, spec, 21, 0)
			par := tracedJSONL(t, spec, 21, 8)
			if !bytes.Equal(seq, par) {
				t.Fatalf("trace differs between sequential and parallel runs:\nsequential %d bytes, parallel %d bytes",
					len(seq), len(par))
			}
			// And across repeated invocations with the same seed.
			again := tracedJSONL(t, spec, 21, 4)
			if !bytes.Equal(seq, again) {
				t.Fatal("trace differs between runs with equal seeds")
			}
			diff := tracedJSONL(t, spec, 22, 0)
			if bytes.Equal(seq, diff) {
				t.Fatal("different seeds produced identical traces")
			}
		})
	}
}

// TestTraceUnsupportedKind: asking for a trace from a kind that does
// not record one is an error, not a silently empty trace.
func TestTraceUnsupportedKind(t *testing.T) {
	mrt, ok := scenario.Lookup("mrt")
	if !ok {
		t.Fatal("mrt spec not registered")
	}
	traced := *mrt
	traced.Trace = &scenario.Trace{Events: true}
	_, err := scenario.Run(&traced, scenario.RunOptions{Seed: 1, Scale: scenario.Scale{JobFactor: 20}})
	if err == nil || !strings.Contains(err.Error(), "does not record traces") {
		t.Fatalf("err = %v, want 'does not record traces'", err)
	}
}

// TestTraceMaxEventsDropped: the cap truncates storage but keeps the
// dropped count, so a clipped trace is detectable.
func TestTraceMaxEventsDropped(t *testing.T) {
	spec := &scenario.Spec{ID: "trace-capped", Kind: "online",
		Workload: &scenario.Workload{N: 200, M: 32, RigidFraction: 1},
		Policies: []string{"fcfs"},
		Params:   map[string]any{"rates": []float64{0.3}},
		Trace:    &scenario.Trace{Events: true, MaxEvents: 10},
	}
	res, err := scenario.Run(spec, scenario.RunOptions{Seed: 3, Scale: scenario.Scale{JobFactor: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(res.Traces))
	}
	tr := res.Traces[0]
	if len(tr.Events) != 10 {
		t.Fatalf("stored %d events, want 10", len(tr.Events))
	}
	if tr.Dropped == 0 {
		t.Fatal("no dropped count on a clipped trace")
	}
}

// finishOrder extracts the job-completion sequence from a trace.
func finishOrder(tr runtrace.CellTrace) []int32 {
	var order []int32
	for _, e := range tr.Events {
		if e.Type == runtrace.EvFinish {
			order = append(order, e.Job)
		}
	}
	return order
}

// TestReplayReproducesRecordedTrace: exporting a recorded trace as SWF
// and replaying it through the streaming "replay" kind on the same
// machine and policy reproduces the original completion order — a
// recorded run is a first-class workload input.
func TestReplayReproducesRecordedTrace(t *testing.T) {
	const m = 32
	src := &scenario.Spec{ID: "trace-src", Kind: "online",
		// Rigid jobs only: the SWF record pins the allocation, so the
		// replay sees exactly the recorded shape.
		Workload: &scenario.Workload{N: 150, M: m, RigidFraction: 1},
		Policies: []string{"fcfs"},
		Params:   map[string]any{"rates": []float64{0.3}},
		Trace:    &scenario.Trace{Events: true},
	}
	res, err := scenario.Run(src, scenario.RunOptions{Seed: 11, Scale: scenario.Scale{JobFactor: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(res.Traces))
	}
	rec := res.Traces[0]
	want := finishOrder(rec)
	if len(want) == 0 {
		t.Fatal("source run finished no jobs")
	}

	path := filepath.Join(t.TempDir(), "recorded.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := runtrace.ExportSWF(f, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("exported %d jobs, finished %d", n, len(want))
	}

	replay := &scenario.Spec{ID: "trace-replay", Kind: "replay",
		Platform: &scenario.Platform{M: m},
		Policies: []string{"fcfs"},
		Params:   map[string]any{"swf": path},
		Trace:    &scenario.Trace{Events: true},
	}
	res2, err := scenario.Run(replay, scenario.RunOptions{Seed: 99}) // seed is irrelevant: the workload is the file
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Traces) != 1 {
		t.Fatalf("replay: got %d traces, want 1", len(res2.Traces))
	}
	got := finishOrder(res2.Traces[0])
	if len(got) != len(want) {
		t.Fatalf("replay finished %d jobs, recorded run finished %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("completion order diverges at %d: replay job %d, recorded job %d", i, got[i], want[i])
		}
	}
}
