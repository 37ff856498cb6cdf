package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gridservice"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// collect drains a specStream.
func collect(t *testing.T, s specStream) ([]gridservice.JobSpec, error) {
	t.Helper()
	var out []gridservice.JobSpec
	for {
		sp, ok, err := s.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, sp)
	}
}

// materializedSWFSpecs is the historical buildSpecs SWF path: read the
// whole trace, then map every job. The streaming path must produce
// the identical spec sequence.
func materializedSWFSpecs(t *testing.T, path string, useRel bool) []gridservice.JobSpec {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jobs, err := trace.ReadSWF(f)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]gridservice.JobSpec, len(jobs))
	for i, j := range jobs {
		specs[i] = swfSpec(j, useRel)
	}
	return specs
}

// TestSWFStreamMatchesMaterialized: replaying a trace through the
// streaming source submits the same specs in the same order as the old
// materialize-then-loop path, with and without -use-release.
func TestSWFStreamMatchesMaterialized(t *testing.T) {
	rng := stats.NewRNG(13)
	recs := make([]trace.SWFRecord, 200)
	for i := range recs {
		recs[i] = trace.SWFRecord{
			ID: i, Submit: rng.Range(0, 500), Wait: rng.Range(0, 50),
			Runtime: rng.Range(0.1, 100), Procs: rng.IntRange(1, 64),
			Weight: float64(rng.Zipf(1.1, 10)),
		}
	}
	path := filepath.Join(t.TempDir(), "replay.swf")
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
	for _, useRel := range []bool{false, true} {
		want := materializedSWFSpecs(t, path, useRel)
		stream, closeStream, err := buildStream(path, 0, 0, 0, useRel)
		if err != nil {
			t.Fatal(err)
		}
		got, serr := collect(t, stream)
		if cerr := closeStream(); cerr != nil {
			t.Fatal(cerr)
		}
		if serr != nil {
			t.Fatal(serr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("useRel=%v: streamed specs diverged from materialized (%d vs %d)",
				useRel, len(got), len(want))
		}
	}
}

// TestSyntheticStreamMatchesMaterialized: the generator-backed stream
// submits the same specs as mapping workload.Parallel eagerly.
func TestSyntheticStreamMatchesMaterialized(t *testing.T) {
	const n, m, seed = 150, 32, uint64(42)
	jobs := workload.Parallel(workload.GenConfig{N: n, M: m, Seed: seed, ArrivalRate: 0.5})
	var want []gridservice.JobSpec
	for _, j := range jobs {
		want = append(want, gridservice.JobSpec{
			Name: j.Name, Class: j.Class, SeqTime: j.SeqTime,
			MinProcs: j.MinProcs, MaxProcs: j.MaxProcs, Weight: j.Weight,
			Release: j.Release,
		})
	}
	stream, closeStream, err := buildStream("", n, m, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	defer closeStream()
	got, serr := collect(t, stream)
	if serr != nil {
		t.Fatal(serr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("synthetic stream diverged from materialized (%d vs %d specs)", len(got), len(want))
	}
}

// TestSWFStreamSurfacesParseError: a malformed record mid-trace, or one
// the replay kind refuses (SWF's -1 for an unknown runtime or processor
// count, a zero or non-finite field), yields the good prefix, then the
// error the replay kind stops on.
func TestSWFStreamSurfacesParseError(t *testing.T) {
	for _, bad := range []string{"broken line", "3 0 0 -1 -1 1", "3 0 0 5 0 1", "3 0 0 0 2 1", "3 0 0 NaN 2 1", "3 0 0 5 2 +Inf"} {
		input := "1 0 0 5 2 1\n2 0 0 5 1 1\n" + bad + "\n4 0 0 5 1 1\n"
		path := filepath.Join(t.TempDir(), "bad.swf")
		if err := os.WriteFile(path, []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
		stream, closeStream, err := buildStream(path, 0, 0, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		got, serr := collect(t, stream)
		if err := closeStream(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("%q: yielded %d specs before the bad line, want 2", bad, len(got))
		}
		replay := trace.NewSWFJobSource(strings.NewReader(input))
		for {
			if _, ok := replay.Next(); !ok {
				break
			}
		}
		if serr == nil || replay.Err() == nil || serr.Error() != replay.Err().Error() {
			t.Fatalf("%q: stream error %v, the replay kind stops on %v", bad, serr, replay.Err())
		}
	}
}
