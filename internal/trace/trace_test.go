package trace

import (
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/workload"
)

func mold(id int, seq float64, maxP int) *workload.Job {
	return &workload.Job{
		ID: id, Kind: workload.Moldable, Weight: 1, DueDate: -1,
		SeqTime: seq, MinProcs: 1, MaxProcs: maxP, Model: workload.Linear{},
	}
}

func demoSchedule() *sched.Schedule {
	s := sched.New(4)
	s.Add(sched.Alloc{Job: mold(1, 8, 4), Start: 0, Procs: 2})
	s.Add(sched.Alloc{Job: mold(2, 4, 4), Start: 0, Procs: 2})
	s.Add(sched.Alloc{Job: mold(3, 4, 4), Start: 4, Procs: 4})
	return s
}

func TestGantt(t *testing.T) {
	var sb strings.Builder
	if err := Gantt(&sb, demoSchedule(), 40); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "makespan=5") {
		t.Fatalf("missing makespan header:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // header + 4 processors
		t.Fatalf("got %d lines", len(lines))
	}
	// Every processor row must contain job 3's label at the end.
	for _, l := range lines[1:] {
		if !strings.Contains(l, "3") {
			t.Fatalf("full-width job missing from row: %s", l)
		}
	}
}

func TestGanttEmpty(t *testing.T) {
	var sb strings.Builder
	if err := Gantt(&sb, sched.New(2), 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "empty") {
		t.Fatal("empty schedule not reported")
	}
}

func TestWriteCSV(t *testing.T) {
	var sb strings.Builder
	if err := WriteCSV(&sb, demoSchedule()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d CSV lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "job,class,start") {
		t.Fatalf("bad header: %s", lines[0])
	}
}

func TestSWFRoundTrip(t *testing.T) {
	cs := []metrics.Completion{
		{Job: mold(1, 8, 4), Start: 2, End: 6, Procs: 2},
		{Job: mold(2, 4, 4), Start: 0, End: 4, Procs: 1},
	}
	cs[0].Job.Release = 1
	var sb strings.Builder
	if err := writeSWF(&sb, completionRecords(cs)); err != nil {
		t.Fatal(err)
	}
	jobs, err := ReadSWF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	j := jobs[0]
	if j.ID != 1 || j.Release != 1 || j.MinProcs != 2 {
		t.Fatalf("roundtrip job: %+v", j)
	}
	// Runtime 4 on 2 procs → seq 8 under the linear profile.
	if j.TimeOn(2) != 4 {
		t.Fatalf("runtime %v, want 4", j.TimeOn(2))
	}
	for _, j := range jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadSWFErrors(t *testing.T) {
	cases := []string{
		"1 2 3",       // short line
		"1 0 0 5 x 1", // non-numeric
		"1 0 0 5 0 1", // zero procs
		"1 0 0 0 2 1", // zero runtime
	}
	for _, c := range cases {
		if _, err := ReadSWF(strings.NewReader(c)); err == nil {
			t.Errorf("bad SWF %q accepted", c)
		}
	}
	// Comments and blanks are fine.
	jobs, err := ReadSWF(strings.NewReader("; header\n\n1 0 0 5 2 1\n"))
	if err != nil || len(jobs) != 1 {
		t.Fatalf("comment handling: %v, %d jobs", err, len(jobs))
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("demo", "name", "ratio")
	tb.AddRow("mrt", 1.2345678)
	tb.AddRow("fcfs", 2)
	var sb strings.Builder
	if err := tb.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "name", "mrt", "1.235", "fcfs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "name,ratio\n") {
		t.Fatalf("bad CSV: %s", csv.String())
	}
}

func TestGanttInfeasibleWidth(t *testing.T) {
	// A schedule that overcommits cannot be assigned processors: Gantt
	// must surface the error rather than render garbage.
	s := sched.New(1)
	s.Add(sched.Alloc{Job: mold(1, 4, 2), Start: 0, Procs: 1})
	s.Add(sched.Alloc{Job: mold(2, 4, 2), Start: 1, Procs: 1})
	var sb strings.Builder
	if err := Gantt(&sb, s, 10); err == nil {
		t.Fatal("overcommitted schedule rendered")
	}
}
