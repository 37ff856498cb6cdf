package runtrace_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/runtrace"
	"repro/internal/trace"
	"repro/internal/workload"
)

func rjob(id int, dur float64, procs int, release float64) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1, Release: release,
		SeqTime: dur * float64(procs), MinProcs: procs, MaxProcs: procs,
		Model: workload.Linear{},
	}
}

// runTraced runs a tiny FCFS cluster with the recorder attached and
// returns the sealed trace.
func runTraced(t *testing.T, rec *runtrace.Recorder, jobs []*workload.Job) runtrace.CellTrace {
	t.Helper()
	s, err := cluster.New(des.New(), 4, 1, cluster.FCFSPolicy{}, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	rec.Attach(s, "")
	for _, j := range jobs {
		if err := s.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return rec.Finish(0, "fcfs")
}

func TestRecorderEventSequence(t *testing.T) {
	tr := runTraced(t, runtrace.NewRecorder(0), []*workload.Job{
		rjob(1, 10, 4, 0), // full machine
		rjob(2, 5, 2, 1),  // waits for job 1
	})
	want := []struct {
		typ runtrace.EventType
		job int32
		t   float64
	}{
		{runtrace.EvSubmit, 1, 0},
		{runtrace.EvSubmit, 2, 1},
		{runtrace.EvStart, 1, 0},
		{runtrace.EvStart, 2, 10},
		{runtrace.EvFinish, 1, 10},
		{runtrace.EvFinish, 2, 15},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(tr.Events), len(want), tr.Events)
	}
	// Events are recorded in simulation order: both submits fire before
	// job 1 starts (arrival events schedule the reschedule pass).
	byKey := map[[2]int32]float64{}
	for _, e := range tr.Events {
		byKey[[2]int32{int32(e.Type), e.Job}] = e.T
	}
	for _, w := range want {
		got, ok := byKey[[2]int32{int32(w.typ), w.job}]
		if !ok {
			t.Fatalf("missing event %v job %d", w.typ, w.job)
		}
		if got != w.t {
			t.Errorf("event %v job %d at t=%v, want %v", w.typ, w.job, got, w.t)
		}
	}
	n := tr.Totals()
	if n.Submits != 2 || n.Finishes != 2 || n.Kills != 0 {
		t.Fatalf("totals %+v", n)
	}
	if tr.Capacity() != 4 {
		t.Fatalf("capacity %d, want 4", tr.Capacity())
	}
}

func TestRecorderCrashKillRequeue(t *testing.T) {
	s, err := cluster.New(des.New(), 4, 1, cluster.FCFSPolicy{}, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	rec := runtrace.NewRecorder(0)
	rec.Attach(s, "")
	if err := s.Submit(rjob(1, 100, 4, 0)); err != nil {
		t.Fatal(err)
	}
	// Crash the whole machine at t=10: the running job is killed and
	// requeued, capacity returns at t=20.
	if err := s.DES.At(10, func() {
		if err := s.Crash(4, 20); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	tr := rec.Finish(0, "")
	count := func(typ runtrace.EventType) int {
		k := 0
		for _, e := range tr.Events {
			if e.Type == typ {
				k++
			}
		}
		return k
	}
	if c, r := count(runtrace.EvCrash), count(runtrace.EvRepair); c != 1 || r != 1 {
		t.Fatalf("crashes %d repairs %d, want 1/1", c, r)
	}
	n := tr.Totals()
	if rq := count(runtrace.EvRequeue); n.Kills != 1 || rq != 1 {
		t.Fatalf("kills %d requeues %d, want 1/1", n.Kills, rq)
	}
	if n.Finishes != 1 {
		t.Fatalf("finishes %d, want 1 (job restarts after repair)", n.Finishes)
	}
}

func TestRecorderCapDrops(t *testing.T) {
	rec := runtrace.NewRecorder(3)
	tr := runTraced(t, rec, []*workload.Job{
		rjob(1, 10, 4, 0), rjob(2, 5, 2, 1),
	})
	if len(tr.Events) != 3 {
		t.Fatalf("stored %d events, want 3", len(tr.Events))
	}
	if tr.Dropped != 3 {
		t.Fatalf("dropped %d, want 3", tr.Dropped)
	}
}

func TestNilRecorderIsNoop(t *testing.T) {
	var rec *runtrace.Recorder
	rec.Record(1, runtrace.EvSubmit, 1, 1, 0)
	tr := rec.Finish(3, "x")
	if tr.Cell != 3 || tr.Label != "x" || len(tr.Events) != 0 {
		t.Fatalf("nil Finish: %+v", tr)
	}
}

// TestRebuildRejectsWhatAnEventCannotHold: a job or processor count past
// int32 and a cluster past the 256th are errors, not values wrapped
// round onto another job or cluster.
func TestRebuildRejectsWhatAnEventCannotHold(t *testing.T) {
	var clusters []string
	for i := 0; i <= 256; i++ {
		clusters = append(clusters, fmt.Sprintf(`{"name":"c%d","m":1}`, i))
	}
	for name, in := range map[string]string{
		"job":     `{"ev":"start","job":4294967301,"procs":1}`,
		"procs":   `{"ev":"start","job":1,"procs":-4294967295}`,
		"cluster": `{"ev":"meta","clusters":[` + strings.Join(clusters, ",") + `]}` + "\n" + `{"ev":"start","job":1,"procs":1,"cluster":"c256"}`,
	} {
		lines, err := runtrace.ParseLines(strings.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if traces, err := runtrace.Rebuild(lines); err == nil {
			t.Fatalf("%s: rebuilt %+v", name, traces)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	traces := []runtrace.CellTrace{
		{
			Cell: 0, Label: "easy",
			Clusters: []runtrace.ClusterInfo{{M: 64}},
			Events: []runtrace.Event{
				{T: 0, Job: 1, Procs: 8, Type: runtrace.EvSubmit},
				{T: 0.1, Job: 1, Procs: 8, Type: runtrace.EvStart},
				{T: 1e6, Job: 1, Procs: 8, Type: runtrace.EvFinish},
				{T: 2.5, Job: -1, Procs: 4, Type: runtrace.EvCrash},
				{T: 3.75, Job: -1, Procs: 4, Type: runtrace.EvRepair},
			},
		},
		{
			Cell: 1, Label: "grid \"odd\" label",
			Clusters: []runtrace.ClusterInfo{{Name: "big", M: 64}, {Name: "tiny", M: 16}},
			Events: []runtrace.Event{
				{T: 0.30000000000000004, Job: 7, Procs: 2, Type: runtrace.EvSubmit, Cluster: 1},
				{T: 5, Job: 7, Procs: 2, Type: runtrace.EvMigrate, Cluster: 0},
			},
			Dropped: 2,
		},
	}
	var buf bytes.Buffer
	if err := runtrace.WriteJSONL(&buf, traces); err != nil {
		t.Fatal(err)
	}
	lines, err := runtrace.ParseLines(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	// 2 meta lines + 7 event lines.
	if len(lines) != 9 {
		t.Fatalf("got %d lines, want 9", len(lines))
	}
	rebuilt, err := runtrace.Rebuild(lines)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt, traces) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", rebuilt, traces)
	}
	// Determinism: re-serializing the rebuilt traces is byte-identical.
	var buf2 bytes.Buffer
	if err := runtrace.WriteJSONL(&buf2, rebuilt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("re-serialized trace differs")
	}
}

func TestBinSeries(t *testing.T) {
	tr := runtrace.CellTrace{
		Clusters: []runtrace.ClusterInfo{{M: 4}},
		Events: []runtrace.Event{
			{T: 0, Job: 1, Procs: 4, Type: runtrace.EvSubmit},
			{T: 0, Job: 2, Procs: 2, Type: runtrace.EvSubmit},
			{T: 0, Job: 1, Procs: 4, Type: runtrace.EvStart},
			{T: 10, Job: 1, Procs: 4, Type: runtrace.EvFinish},
			{T: 10, Job: 2, Procs: 2, Type: runtrace.EvStart},
			{T: 20, Job: 2, Procs: 2, Type: runtrace.EvFinish},
		},
	}
	s := runtrace.BinSeries(tr, 2)
	if s.Horizon != 20 || s.Capacity != 4 {
		t.Fatalf("horizon %v capacity %d", s.Horizon, s.Capacity)
	}
	if s.Util[0] != 1 || s.Util[1] != 0.5 {
		t.Fatalf("util %v, want [1 0.5]", s.Util)
	}
	// Queue: both jobs queued at 0 (instantaneously), job 2 waits until
	// t=10 → depth 1 over [0,10), 0 after.
	if s.Queue[0] != 1 || s.Queue[1] != 0 {
		t.Fatalf("queue %v, want [1 0]", s.Queue)
	}
	if s.MaxQueue != 2 {
		t.Fatalf("max queue %d, want 2 (both queued at t=0)", s.MaxQueue)
	}
	if s.MeanUtil != 0.75 {
		t.Fatalf("mean util %v, want 0.75", s.MeanUtil)
	}
}

func TestBinSeriesBEKillsDoNotCorrupt(t *testing.T) {
	// A best-effort kill is non-job-scoped (job -1, no recorded start):
	// busy accounting must not go negative.
	tr := runtrace.CellTrace{
		Clusters: []runtrace.ClusterInfo{{M: 2}},
		Events: []runtrace.Event{
			{T: 0, Job: 1, Procs: 2, Type: runtrace.EvSubmit},
			{T: 0, Job: 1, Procs: 2, Type: runtrace.EvStart},
			{T: 1, Job: -1, Procs: 1, Type: runtrace.EvKill},
			{T: 4, Job: 1, Procs: 2, Type: runtrace.EvFinish},
		},
	}
	s := runtrace.BinSeries(tr, 1)
	if s.Util[0] != 1 {
		t.Fatalf("util %v, want [1]", s.Util)
	}
}

func TestExportSWFRoundTrip(t *testing.T) {
	tr := runTraced(t, runtrace.NewRecorder(0), []*workload.Job{
		// Submitted out of order: export must sort by (submit, id).
		rjob(3, 4, 2, 5),
		rjob(1, 10, 4, 0),
		rjob(2, 5, 2, 5),
	})
	var buf bytes.Buffer
	n, err := runtrace.ExportSWF(&buf, tr)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("exported %d jobs, want 3", n)
	}
	recs, err := trace.ReadSWFRecords(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("read back %d records", len(recs))
	}
	// Sorted by (submit, id): job 1 (t=0), then jobs 2 and 3 (t=5).
	if recs[0].ID != 1 || recs[1].ID != 2 || recs[2].ID != 3 {
		t.Fatalf("order %d %d %d, want 1 2 3", recs[0].ID, recs[1].ID, recs[2].ID)
	}
	for _, r := range recs {
		if r.Runtime <= 0 || r.Procs <= 0 || r.Wait < 0 {
			t.Fatalf("bad record %+v", r)
		}
	}
}

func TestExportSWFSkipsUnfinished(t *testing.T) {
	tr := runtrace.CellTrace{Events: []runtrace.Event{
		{T: 0, Job: 1, Procs: 1, Type: runtrace.EvSubmit},
		{T: 0, Job: 2, Procs: 1, Type: runtrace.EvSubmit},
		{T: 0, Job: 2, Procs: 1, Type: runtrace.EvStart},
		{T: 3, Job: 2, Procs: 1, Type: runtrace.EvFinish},
	}}
	var buf bytes.Buffer
	n, err := runtrace.ExportSWF(&buf, tr)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("exported %d jobs, want 1 (job 1 never finished)", n)
	}
}

func BenchmarkRecord(b *testing.B) {
	rec := runtrace.NewRecorder(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Record(float64(i), runtrace.EvSubmit, i, 4, 0)
	}
}
