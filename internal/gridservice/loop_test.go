package gridservice

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// recordCompletions wraps every cluster's OnLocalDone, on the loop, so
// a test sees the completion records the broker itself does not keep.
// Call it before submitting work; got[i] is cluster i's records in
// completion order, safe to read once a later Drain has returned.
func recordCompletions(t *testing.T, b *Broker) (got [][]metrics.Completion) {
	t.Helper()
	got = make([][]metrics.Completion, len(b.fleet.Sims))
	err := b.do(func() {
		for i, cs := range b.fleet.Sims {
			done := cs.OnLocalDone
			cs.OnLocalDone = func(c metrics.Completion) {
				done(c)
				got[i] = append(got[i], c)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// startOne starts the one-cluster broker a flag-configured gridd serves.
func startOne(t *testing.T, m int, policy string, dilation float64) *Broker {
	t.Helper()
	b, err := NewBroker(oneCluster(m, policy, dilation))
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	t.Cleanup(b.Stop)
	return b
}

// traceJobs builds a workload, round-trips it through the SWF format
// (exactly what a user replaying a trace file does), and returns two
// independent copies of the resulting rigid jobs.
func traceJobs(t *testing.T, seed uint64, n, m int) (forBroker, forOffline []*workload.Job) {
	t.Helper()
	gen := workload.Parallel(workload.GenConfig{N: n, M: m, Seed: seed, ArrivalRate: 0.2})
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
	var buf bytes.Buffer
	w := trace.NewSWFWriter(&buf)
	for _, rec := range recs {
		w.Write(rec) //nolint:errcheck // sticky, returned by Flush
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	a, err := trace.ReadSWF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := trace.ReadSWF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// replayIDs replays jobs through a fresh one-cluster broker, drains it
// and returns the job IDs in completion-event order.
func replayIDs(t *testing.T, jobs []*workload.Job, m int, policy string) []int {
	t.Helper()
	b := startOne(t, m, policy, 0)
	done := recordCompletions(t, b)
	if err := b.SubmitBatch(jobs); err != nil {
		t.Fatal(err)
	}
	st, err := b.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Fleet.Completed != len(jobs) {
		t.Fatalf("broker completed %d of %d jobs", st.Fleet.Completed, len(jobs))
	}
	ids := make([]int, len(done[0]))
	for i, c := range done[0] {
		ids[i] = c.Job.ID
	}
	return ids
}

// TestBrokerKeepsNoHistory: a drained broker holds no completion
// record (each would pin its job for the daemon's lifetime), and its
// stats still count every job.
func TestBrokerKeepsNoHistory(t *testing.T) {
	const n, m = 500, 16
	b := startOne(t, m, "easy", 0)
	if err := b.SubmitBatch(testJobs(n, m, 5)); err != nil {
		t.Fatal(err)
	}
	st, err := b.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Clusters[0].Stats; c.Submitted != n || c.Completed != n || c.Waiting != 0 || c.Running != 0 {
		t.Fatalf("stats after drain: %+v", c)
	}
	var held int
	if err := b.do(func() { held = len(b.fleet.Sims[0].Completions()) }); err != nil {
		t.Fatal(err)
	}
	if held != 0 {
		t.Fatalf("%d of %d completion records held after drain, want 0", held, n)
	}
}

// TestServiceMatchesOfflineOrder is the determinism acceptance check: an
// SWF trace replayed through a live one-cluster broker must complete
// jobs in exactly the same order as an offline cluster.Sim run at the
// same seed, for every online policy in the registry.
func TestServiceMatchesOfflineOrder(t *testing.T) {
	const n, m = 200, 32
	for _, entry := range registry.All() {
		if !entry.Caps.Online {
			continue
		}
		entry := entry
		t.Run(entry.Name, func(t *testing.T) {
			live, off := traceJobs(t, 7, n, m)
			sim, err := cluster.New(des.New(), m, 1, entry.NewPolicy(), cluster.KillNewest)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range off {
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
			got := replayIDs(t, live, m, entry.Name)
			if len(got) != len(want) {
				t.Fatalf("completion counts differ: broker %d, offline %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("completion order diverges at position %d: broker job %d, offline job %d",
						i, got[i], want[i])
				}
			}
		})
	}
}

// TestServiceDeterministicAcrossRuns replays the same trace through two
// independent brokers and requires identical completion orders (no
// wall-clock leakage into the virtual schedule).
func TestServiceDeterministicAcrossRuns(t *testing.T) {
	run := func() []int {
		jobs, _ := traceJobs(t, 11, 150, 16)
		return replayIDs(t, jobs, 16, "easy")
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("completion orders differ:\n%v\n%v", a, b)
	}
}

func TestSubmitAndComplete(t *testing.T) {
	b := startOne(t, 8, "easy", 0)
	st, err := b.Submit(JobSpec{Name: "a", SeqTime: 100, MinProcs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 || st.State != StateWaiting || st.Cluster != "c0" {
		t.Fatalf("initial status = %+v", st)
	}
	fs, err := b.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c := fs.Clusters[0].Stats; c.Completed != 1 || c.Submitted != 1 || fs.Fleet.Submitted != 1 {
		t.Fatalf("stats after drain = %+v", fs)
	}
	got, ok, err := b.Job(0)
	if err != nil || !ok {
		t.Fatalf("Job(0): ok=%v err=%v", ok, err)
	}
	if got.State != StateDone || got.Procs != 2 || got.End <= 0 || got.Cluster != "c0" {
		t.Fatalf("final status = %+v", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	b := startOne(t, 4, "fcfs", 0)
	if _, err := b.Submit(JobSpec{SeqTime: -1, MinProcs: 1}); err == nil {
		t.Fatal("negative seq_time accepted")
	}
	if _, err := b.Submit(JobSpec{SeqTime: 10, MinProcs: 99}); !errors.Is(err, ErrNoCluster) {
		t.Fatalf("job wider than the cluster: %v, want ErrNoCluster", err)
	}
	// Failed submissions must not burn IDs.
	st, err := b.Submit(JobSpec{SeqTime: 10, MinProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 {
		t.Fatalf("first accepted job got ID %d, want 0", st.ID)
	}
}

func TestDrainRejectsFurtherSubmissions(t *testing.T) {
	b := startOne(t, 8, "easy", 0)
	if _, err := b.Submit(JobSpec{SeqTime: 10, MinProcs: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Submit(JobSpec{SeqTime: 10, MinProcs: 1}); !errors.Is(err, cluster.ErrDrained) {
		t.Fatalf("post-drain submit error = %v, want ErrDrained", err)
	}
	late := &workload.Job{ID: 7, Kind: workload.Rigid, Weight: 1, DueDate: -1,
		SeqTime: 1, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{}}
	if err := b.SubmitBatch([]*workload.Job{late}); !errors.Is(err, cluster.ErrDrained) {
		t.Fatalf("post-drain batch error = %v, want ErrDrained", err)
	}
	if st, _ := b.Stats(); st.Fleet.Submitted != 1 {
		t.Fatalf("refused submissions counted: %d submitted", st.Fleet.Submitted)
	}
}

func TestStoppedBrokerRejects(t *testing.T) {
	b := startOne(t, 8, "easy", 0)
	b.Stop()
	if _, err := b.Submit(JobSpec{SeqTime: 10, MinProcs: 1}); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after stop = %v, want ErrStopped", err)
	}
	if _, err := b.Stats(); !errors.Is(err, ErrStopped) {
		t.Fatalf("stats after stop = %v, want ErrStopped", err)
	}
}

func TestOfflinePolicyRejected(t *testing.T) {
	for _, policy := range []string{"mrt", "no-such"} {
		if _, err := NewBroker(oneCluster(8, policy, 0)); err == nil {
			t.Fatalf("policy %q accepted by the broker", policy)
		}
	}
}

// TestDilationPacesVirtualClock checks the wall-clock driver: with a
// dilation of 1000x, a 100-virtual-second job must complete within a few
// hundred wall milliseconds — and not instantly.
func TestDilationPacesVirtualClock(t *testing.T) {
	b := startOne(t, 4, "fcfs", 1000)
	if _, err := b.Submit(JobSpec{SeqTime: 100, MinProcs: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, ok, err := b.Job(0)
		if err != nil || !ok {
			t.Fatalf("Job(0): ok=%v err=%v", ok, err)
		}
		if st.State == StateDone {
			if st.End < 100 {
				t.Fatalf("job completed at virtual %v, want >= 100", st.End)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not completed after 5s wall; status %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Clusters[0].Stats.VirtualNow < 100 {
		t.Fatalf("virtual clock %v did not pass the completion time", st.Clusters[0].Stats.VirtualNow)
	}
}

func TestQueueSnapshot(t *testing.T) {
	// Dilated so the in-flight state is observable: at 1 virtual second
	// per wall second, a 10000-virtual-second job never finishes within
	// the test.
	b := startOne(t, 2, "fcfs", 1)
	// Two 2-wide jobs: the second must wait behind the first.
	for i := 0; i < 2; i++ {
		if _, err := b.Submit(JobSpec{SeqTime: 10000, MinProcs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		q, err := b.Queue()
		if err != nil {
			t.Fatal(err)
		}
		snap := q[0]
		if len(snap.Running) == 1 && len(snap.Waiting) == 1 {
			if snap.Running[0].ID != 0 || snap.Waiting[0].ID != 1 {
				t.Fatalf("queue snapshot order: running=%d waiting=%d", snap.Running[0].ID, snap.Waiting[0].ID)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue snapshot never reached 1 running / 1 waiting: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitBatchAtomicity: a batch containing an invalid job (or an
// intra-batch duplicate ID) must leave no partial state behind.
func TestSubmitBatchAtomicity(t *testing.T) {
	b := startOne(t, 4, "fcfs", 0)
	good := func(id int) *workload.Job {
		return &workload.Job{
			ID: id, Kind: workload.Rigid, Weight: 1, DueDate: -1,
			SeqTime: 10, MinProcs: 1, MaxProcs: 1, Model: workload.Linear{},
		}
	}
	tooWide := good(2)
	tooWide.MinProcs, tooWide.MaxProcs = 99, 99
	if err := b.SubmitBatch([]*workload.Job{good(0), good(1), tooWide}); err == nil {
		t.Fatal("batch with too-wide job accepted")
	}
	if err := b.SubmitBatch([]*workload.Job{good(3), good(3)}); err == nil {
		t.Fatal("batch with intra-batch duplicate ID accepted")
	}
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fleet.Submitted != 0 || st.Clusters[0].Stats.Submitted != 0 {
		t.Fatalf("rejected batches leaked jobs: %+v", st.Fleet)
	}
	// A clean batch still goes through afterwards.
	if err := b.SubmitBatch([]*workload.Job{good(0), good(1)}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueIncludesPendingArrivals: jobs submitted with a future release
// date (not yet arrived in the cluster) must show up in the /v1/queue
// waiting list, consistent with the /v1/stats waiting count.
func TestQueueIncludesPendingArrivals(t *testing.T) {
	b := startOne(t, 4, "fcfs", 1)
	// Released an hour of virtual time out: at 1x it cannot arrive
	// during the test.
	if _, err := b.Submit(JobSpec{SeqTime: 10, MinProcs: 1, Release: 3600}); err != nil {
		t.Fatal(err)
	}
	q, err := b.Queue()
	if err != nil {
		t.Fatal(err)
	}
	if w := q[0].Waiting; len(w) != 1 || w[0].ID != 0 {
		t.Fatalf("pending arrival missing from queue snapshot: %+v", q[0])
	}
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Clusters[0].Stats.Waiting != len(q[0].Waiting) {
		t.Fatalf("stats waiting=%d but queue lists %d", st.Clusters[0].Stats.Waiting, len(q[0].Waiting))
	}
}

// TestConcurrentSubmissions hammers the mailbox from many goroutines
// (run under -race in CI) and checks nothing is lost.
func TestConcurrentSubmissions(t *testing.T) {
	b := startOne(t, 64, "easy", 0)
	const workers, per = 8, 50
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for i := 0; i < per; i++ {
				if _, err := b.Submit(JobSpec{SeqTime: 10, MinProcs: 1}); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	st, err := b.Drain(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Fleet.Submitted != workers*per || st.Fleet.Completed != workers*per {
		t.Fatalf("submitted=%d completed=%d, want %d", st.Fleet.Submitted, st.Fleet.Completed, workers*per)
	}
}

// settledGoroutines waits until the goroutine count stops moving (other
// tests' servers wind down asynchronously) and returns it.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestBrokerRunsOneGoroutine: a 4-cluster fleet, paced and busy with
// jobs and a campaign, runs on exactly one goroutine, which Stop ends.
func TestBrokerRunsOneGoroutine(t *testing.T) {
	topo := fleetTopo(4, 8, "decentralized")
	topo.Dilation = 100
	b, err := NewBroker(topo)
	if err != nil {
		t.Fatal(err)
	}
	before := settledGoroutines()
	b.Start()
	for i := 0; i < 20; i++ {
		if _, err := b.Submit(JobSpec{SeqTime: 40, MinProcs: 1 + i%8}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.SubmitCampaign(CampaignSpec{Tasks: 50, RunTime: 5}); err != nil {
		t.Fatal(err)
	}
	if d := runtime.NumGoroutine() - before; d != 1 {
		t.Fatalf("a running 4-cluster broker added %d goroutines, want 1", d)
	}
	b.Stop()
	if d := settledGoroutines() - before; d != 0 {
		t.Fatalf("%d goroutines left after Stop", d)
	}
}

// TestBrokerConcurrentClientsDuringPacedRun drives every entry point at
// once against a paced fleet, then drains it (run under -race in CI):
// nothing is lost and every campaign completes.
func TestBrokerConcurrentClientsDuringPacedRun(t *testing.T) {
	topo := fleetTopo(4, 8, "decentralized")
	topo.Dilation = 500
	b, err := NewBroker(topo)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Stop()
	const workers, per = 4, 40
	var wg sync.WaitGroup
	errc := make(chan error, 3*workers)
	for w := 0; w < workers; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := b.Submit(JobSpec{SeqTime: 20, MinProcs: 1 + i%4}); err != nil {
					errc <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, _, err := b.Job(i); err != nil {
					errc <- err
					return
				}
				if _, err := b.Queue(); err != nil {
					errc <- err
					return
				}
				if _, err := b.Stats(); err != nil {
					errc <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := b.SubmitCampaign(CampaignSpec{Tasks: 20, RunTime: 3}); err != nil {
				errc <- err
			}
			b.Campaigns()
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	st, err := b.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fleet.Submitted != workers*per || st.Fleet.Completed != workers*per {
		t.Fatalf("submitted=%d completed=%d, want %d", st.Fleet.Submitted, st.Fleet.Completed, workers*per)
	}
	if st.Fleet.Campaigns != workers || st.Fleet.CampaignsDone != workers || st.Fleet.Stock != 0 {
		t.Fatalf("campaigns %d done %d stock %d, want %d done and an empty stock",
			st.Fleet.Campaigns, st.Fleet.CampaignsDone, st.Fleet.Stock, workers)
	}
}

// TestBrokerCampaignCap: a campaign past maxCampaignTasks is refused
// with 400 over HTTP and leaves the stock and the campaign list as they
// were.
func TestBrokerCampaignCap(t *testing.T) {
	b, srv := serve(t, oneCluster(8, "easy", 1))
	if _, err := b.SubmitCampaign(CampaignSpec{Tasks: maxCampaignTasks + 1, RunTime: 1}); err == nil {
		t.Fatal("campaign past the cap accepted")
	}
	resp, _ := postJSON(t, srv.URL+"/v1/campaigns",
		fmt.Sprintf(`{"tasks": %d, "run_time": 1}`, maxCampaignTasks+1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("campaign past the cap: status %d, want 400", resp.StatusCode)
	}
	st, err := b.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Fleet.Stock != 0 || st.Fleet.Campaigns != 0 || len(b.Campaigns()) != 0 {
		t.Fatalf("refused campaign changed the broker: stock %d, campaigns %d", st.Fleet.Stock, st.Fleet.Campaigns)
	}
}
