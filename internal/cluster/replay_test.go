// Streaming-replay benchmark and smoke test: stream a synthetic SWF
// archive of REPLAY_JOBS jobs (default one million) through the online
// simulator with lazy admission, the O(1) metrics accumulator and
// discard retention, and report wire speed (events/s) plus peak heap.
// Peak memory is O(active jobs), so the heap figure stays flat as the
// archive grows — BENCH_2.json records the 100k-vs-1M evidence.
//
// Run: go test -run '^$' -bench BenchmarkReplay -benchtime 1x ./internal/cluster
// Smoke (CI, under GOMEMLIMIT): scripts/smoke_replay.sh, which runs
// REPLAY_SMOKE=1 go test -run TestReplaySmoke -v ./internal/cluster
package cluster_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// replayJobs resolves the archive size (REPLAY_JOBS env, default 1M).
func replayJobs(tb testing.TB) int {
	n := 1_000_000
	if s := os.Getenv("REPLAY_JOBS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			tb.Fatalf("bad REPLAY_JOBS %q", s)
		}
		n = v
	}
	return n
}

// writeReplayArchive writes that trace to a file at path.
func writeReplayArchive(tb testing.TB, path string, n int) {
	tb.Helper()
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	cluster.WriteReplayRecords(tb, f, n)
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
}

// TestReplayAllocBudget gates the streaming path's allocation budget
// without the benchmark: replaying an archive under EASY with discard
// retention allocates one slab per 64 jobs, in which the source builds
// the jobs it hands the simulator, and, per job, nothing else — no job
// of its own, no string or field slice per line, no run record,
// closure or decision slice per start, no profile reservation at a start
// (the profile is brought up to date only when EASY reads it, and the
// read reserves into arrays already grown). The constant covers set-up:
// the scanner's buffer, the event heap, queue and profile growing to
// their working size.
func TestReplayAllocBudget(t *testing.T) {
	const n = 20_000
	var archive bytes.Buffer
	cluster.WriteReplayRecords(t, &archive, n)
	sim, err := cluster.New(des.New(), cluster.ReplayM, 1, cluster.EASYPolicy{}, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetRetention(metrics.NewDiscard()); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sim.Stream(trace.NewSWFJobSource(bytes.NewReader(archive.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if sim.CompletedCount() != n {
		t.Fatalf("completed %d of %d jobs", sim.CompletedCount(), n)
	}
	mallocs := after.Mallocs - before.Mallocs
	if budget := uint64(n/64) + 200; mallocs > budget {
		t.Fatalf("%d allocations for %d jobs (%.2f per job), budget %d", mallocs, n, float64(mallocs)/n, budget)
	}
	t.Logf("%d allocations for %d jobs", mallocs, n)
}

// TestFCFSReplayLeavesProfileUntouched: FCFS never reads the profile, so
// replaying 20 000 jobs under it leaves the profile as New made it — one
// segment from 0 with every processor free — and no start or finish paid
// for a reservation or a trim.
func TestFCFSReplayLeavesProfileUntouched(t *testing.T) {
	const n = 20_000
	var archive bytes.Buffer
	cluster.WriteReplayRecords(t, &archive, n)
	sim, err := cluster.New(des.New(), cluster.ReplayM, 1, cluster.FCFSPolicy{}, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Stream(trace.NewSWFJobSource(bytes.NewReader(archive.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if sim.CompletedCount() != n {
		t.Fatalf("completed %d of %d jobs", sim.CompletedCount(), n)
	}
	p := sim.ProfileAsIs()
	if p.Segments() != 1 || p.Start() != 0 || p.AvailableAt(0) != cluster.ReplayM {
		t.Fatalf("profile breaks at %v with %d free from %v, want one segment from 0 with all %d free",
			p.Breakpoints(), p.AvailableAt(p.Start()), p.Start(), cluster.ReplayM)
	}
}

// defectArchive is a 5000-record replay archive whose record at (1-based)
// position at is the line bad instead of a well-formed one. The records
// after it run more than a read-ahead batch past the defect.
func defectArchive(at int, bad string) []byte {
	var b bytes.Buffer
	b.WriteString("; id submit wait runtime procs weight\n")
	for id := 1; id <= 5000; id++ {
		if id == at {
			b.WriteString(bad + "\n")
			continue
		}
		fmt.Fprintf(&b, "%d %g 0 %d %d 1\n", id, float64(id)*0.5, 1+id%19, 1+id%2)
	}
	return b.Bytes()
}

// countingSource counts the Next calls made on the source it wraps. The
// count is a plain int: read after Run, the race detector flags any call
// that Run did not wait for.
type countingSource struct {
	*trace.SWFJobSource
	calls int
}

func (s *countingSource) Next() (*workload.Job, bool) {
	s.calls++
	return s.SWFJobSource.Next()
}

// streamDefect replays archive under EASY and returns the number of jobs
// admitted, the source's Next calls and Run's error.
func streamDefect(t *testing.T, archive []byte) (admitted, calls int, err error) {
	t.Helper()
	sim, err := cluster.New(des.New(), cluster.ReplayM, 1, cluster.EASYPolicy{}, cluster.KillNewest)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{SWFJobSource: trace.NewSWFJobSource(bytes.NewReader(archive))}
	if err := sim.Stream(src); err != nil {
		t.Fatal(err)
	}
	err = sim.Run()
	return sim.Submitted(), src.calls, err
}

// TestStreamMalformedRecordMidArchive: a malformed line ends the stream
// after the jobs before it, however far ahead the source was read, and
// Run returns the scanner's error unwrapped.
func TestStreamMalformedRecordMidArchive(t *testing.T) {
	admitted, _, err := streamDefect(t, defectArchive(1500, "1500 750 0 x 1 1"))
	const want = `trace: line 1501 field 3: strconv.ParseFloat: parsing "x": invalid syntax`
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %s", err, want)
	}
	if admitted != 1499 {
		t.Fatalf("%d jobs admitted, want 1499", admitted)
	}
}

// TestStreamWideJobStopsReadAhead: a job wider than the cluster ends the
// stream with the width error, and Run returns only once no goroutine
// reads the source any more.
func TestStreamWideJobStopsReadAhead(t *testing.T) {
	before := runtime.NumGoroutine()
	admitted, calls, err := streamDefect(t, defectArchive(2500, fmt.Sprintf("2500 1250 0 5 %d 1", cluster.ReplayM+1)))
	want := fmt.Sprintf("cluster: job 2500 needs %d > %d procs", cluster.ReplayM+1, cluster.ReplayM)
	if err == nil || err.Error() != want {
		t.Fatalf("Run = %v, want %s", err, want)
	}
	if admitted != 2499 {
		t.Fatalf("%d jobs admitted, want 2499", admitted)
	}
	if calls < 2500 {
		t.Fatalf("%d source calls, want at least 2500", calls)
	}
	// The last fill has handed its batch over; its goroutine only has to
	// return.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Fewer is fine: a goroutine of an earlier test may have exited.
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Run, %d before Stream", n, before)
	}
}

// streamReplay replays the archive once and returns the event count
// and the peak heap observed by a 5ms sampler during the run.
func streamReplay(tb testing.TB, path string, n int) (events uint64, peakHeap uint64) {
	tb.Helper()
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	sim, err := cluster.New(des.New(), cluster.ReplayM, 1, cluster.EASYPolicy{}, cluster.KillNewest)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sim.SetRetention(metrics.NewDiscard()); err != nil {
		tb.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()

	if err := sim.Stream(trace.NewSWFJobSource(f)); err != nil {
		tb.Fatal(err)
	}
	if err := sim.Run(); err != nil {
		tb.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if sim.CompletedCount() != n {
		tb.Fatalf("completed %d of %d jobs", sim.CompletedCount(), n)
	}
	if sim.Report().Makespan <= 0 {
		tb.Fatal("degenerate replay report")
	}
	return sim.DES.Processed, peak
}

// BenchmarkReplayMillionJobs streams the archive through the engine and
// reports events/s and peak heap alongside the standard measurements.
func BenchmarkReplayMillionJobs(b *testing.B) {
	n := replayJobs(b)
	path := filepath.Join(b.TempDir(), "archive.swf")
	writeReplayArchive(b, path, n)
	b.ReportAllocs()
	b.ResetTimer()
	var events, peak uint64
	for i := 0; i < b.N; i++ {
		ev, pk := streamReplay(b, path, n)
		events += ev
		if pk > peak {
			peak = pk
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(peak), "peak-heap-B")
}

// TestReplaySmokeMillionJobs is the CI replay smoke (REPLAY_SMOKE=1,
// run under GOMEMLIMIT by scripts/smoke_replay.sh): the full archive
// must stream within a hard peak-heap bound and above an events/s
// floor. The defaults sit a few times above what a 2-core host reads
// (about 4 MiB and 2.7M events/s), close enough that buffering the
// stream or serializing the replay fails them. Bounds are env-tunable
// for slow runners: REPLAY_MAX_HEAP_MB (default 32),
// REPLAY_MIN_EVENTS_PER_SEC (default 500000).
func TestReplaySmokeMillionJobs(t *testing.T) {
	if os.Getenv("REPLAY_SMOKE") == "" {
		t.Skip("set REPLAY_SMOKE=1 to run the streaming replay smoke")
	}
	envInt := func(key string, def int) int {
		if s := os.Getenv(key); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v <= 0 {
				t.Fatalf("bad %s %q", key, s)
			}
			return v
		}
		return def
	}
	maxHeapMB := envInt("REPLAY_MAX_HEAP_MB", 32)
	minEvents := envInt("REPLAY_MIN_EVENTS_PER_SEC", 500_000)

	n := replayJobs(t)
	path := filepath.Join(t.TempDir(), "archive.swf")
	writeReplayArchive(t, path, n)
	t0 := time.Now()
	events, peak := streamReplay(t, path, n)
	elapsed := time.Since(t0)

	rate := float64(events) / elapsed.Seconds()
	t.Logf("replayed %d jobs: %d events in %v (%.0f events/s), peak heap %.1f MiB",
		n, events, elapsed.Round(time.Millisecond), rate, float64(peak)/(1<<20))
	if peak > uint64(maxHeapMB)<<20 {
		t.Fatalf("peak heap %.1f MiB exceeds the %d MiB bound — streaming memory is not O(active)",
			float64(peak)/(1<<20), maxHeapMB)
	}
	if rate < float64(minEvents) {
		t.Fatalf("replay ran at %.0f events/s, below the %d floor", rate, minEvents)
	}
}
