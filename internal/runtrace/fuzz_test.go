package runtrace_test

import (
	"bytes"
	"reflect"
	"testing"

	_ "repro/internal/experiments" // registers the kind runners
	"repro/internal/runtrace"
	"repro/internal/scenario"
)

// tracedBuiltIn returns the JSONL of the first two traces of a catalog
// scenario run at a tenth of its scale with tracing on, each sub-run
// capped at maxEvents events: a seed small enough for the fuzzer to
// mutate quickly.
func tracedBuiltIn(f *testing.F, id string, maxEvents int) []byte {
	f.Helper()
	spec, ok := scenario.Lookup(id)
	if !ok {
		f.Fatalf("%s spec not registered", id)
	}
	traced := *spec // shallow copy: never mutate the shared catalog spec
	traced.Trace = &scenario.Trace{Events: true, MaxEvents: maxEvents}
	res, err := scenario.Run(&traced, scenario.RunOptions{Seed: 7, Scale: scenario.Scale{JobFactor: 10}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runtrace.WriteJSONL(&buf, res.Traces[:min(2, len(res.Traces))]); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip parses JSONL bytes and rebuilds the traces in them.
func roundTrip(data []byte) ([]runtrace.CellTrace, error) {
	lines, err := runtrace.ParseLines(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return runtrace.Rebuild(lines)
}

// FuzzTraceJSONL feeds arbitrary bytes through ParseLines and Rebuild,
// writes what they accept with WriteJSONL and reads that back. No step
// may panic; once the bytes are accepted, the traces read back must equal
// the traces first rebuilt, and writing them must give the same bytes
// every time. Seeded with the JSONL of two traced built-ins: a fleet whose
// clusters have names, and a cluster under node churn.
func FuzzTraceJSONL(f *testing.F) {
	f.Add(tracedBuiltIn(f, "gridpolicies", 6))
	f.Add(tracedBuiltIn(f, "churn", 6))
	f.Add([]byte(`{"cell":0,"ev":"meta","clusters":[{"m":4}],"events":1}` + "\n" + `{"cell":0,"ev":"crash","t":1.5,"procs":2}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		traces, err := roundTrip(data)
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := runtrace.WriteJSONL(&first, traces); err != nil {
			t.Fatalf("writing accepted traces: %v", err)
		}
		if err := runtrace.WriteJSONL(&second, traces); err != nil {
			t.Fatalf("writing accepted traces again: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("the same traces wrote\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
		again, err := roundTrip(first.Bytes())
		if err != nil {
			t.Fatalf("reading back what WriteJSONL wrote: %v\n%s", err, first.Bytes())
		}
		if !reflect.DeepEqual(again, traces) {
			t.Fatalf("read back\n%+v\nwrote\n%+v\nas\n%s", again, traces, first.Bytes())
		}
	})
}
