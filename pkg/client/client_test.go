package client

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	_ "repro/internal/experiments" // register scenario kinds + catalog
	"repro/internal/gridservice"
	"repro/internal/scenario"
)

// newTestDaemon starts a daemon with a default run service.
func newTestDaemon(t *testing.T) *Client {
	t.Helper()
	return New(serveDaemon(t, api.Config{}))
}

// serveDaemon starts what a flag-configured gridd serves — a one-cluster
// broker over a run service configured by cfg — behind an httptest
// server, the SDK's target surface, and returns its URL.
func serveDaemon(t *testing.T, cfg api.Config) string {
	t.Helper()
	b, err := gridservice.NewBroker(gridservice.Topology{
		Clusters: []gridservice.ClusterSpec{{M: 8, Policy: "easy"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	runs := api.NewRunService(cfg)
	srv := httptest.NewServer(b.Handler(runs))
	t.Cleanup(func() {
		srv.Close()
		runs.Close()
		b.Stop()
	})
	return srv.URL
}

// TestRunLifecycle: submit → stream → result through the SDK, and the
// text result matches the engine's own rendering byte for byte.
func TestRunLifecycle(t *testing.T) {
	c := newTestDaemon(t)
	ctx := context.Background()
	seed := uint64(42)

	var cells atomic.Int32
	final, err := c.RunToCompletion(ctx,
		scenario.HTTPRequest{ID: "mrt", Seed: &seed, Quick: true},
		func(e api.Event) {
			if e.Type == "cell" {
				cells.Add(1)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.RunDone {
		t.Fatalf("state %q: %s", final.State, final.Error)
	}
	if int(cells.Load()) != final.CellsDone || final.CellsDone == 0 {
		t.Fatalf("streamed %d cells, status says %d", cells.Load(), final.CellsDone)
	}

	text, err := c.RunResultText(ctx, final.ID, "text")
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := scenario.Lookup("mrt")
	want, err := scenario.Run(spec, scenario.RunOptions{
		Seed: 42, SeedExplicit: true, Scale: scenario.Scale{JobFactor: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := want.Table.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if text != buf.String() {
		t.Fatalf("SDK text result differs from engine rendering")
	}

	res, err := c.RunResult(ctx, final.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != "mrt" || len(res.Cells) != len(want.Table.Rows) {
		t.Fatalf("typed result %+v", res)
	}

	runs, err := c.Runs(ctx)
	if err != nil || len(runs) == 0 {
		t.Fatalf("list: %v (%d runs)", err, len(runs))
	}
}

// TestTypedErrors: 404 and cancel-conflict surface as typed errors.
func TestTypedErrors(t *testing.T) {
	c := newTestDaemon(t)
	ctx := context.Background()

	if _, err := c.Run(ctx, "r999999"); !IsNotFound(err) {
		t.Fatalf("unknown run: %v", err)
	}
	st, err := c.RunToCompletion(ctx, scenario.HTTPRequest{ID: "treedlt", Quick: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CancelRun(ctx, st.ID); err == nil {
		t.Fatal("cancelling a done run must conflict")
	} else if e, ok := err.(*Error); !ok || e.Status != http.StatusConflict {
		t.Fatalf("cancel error: %v", err)
	}
}

// TestJobsAPI: the loadgen surface — submit, status, stats counter,
// campaigns.
func TestJobsAPI(t *testing.T) {
	c := newTestDaemon(t)
	ctx := context.Background()

	st, err := c.SubmitJob(ctx, gridservice.JobSpec{Name: "j", SeqTime: 10, MinProcs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cluster != "c0" {
		t.Fatalf("accepted on cluster %q, want the one-cluster fleet's c0", st.Cluster)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		js, err := c.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.State == gridservice.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", js.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	done, err := c.Completed(ctx)
	if err != nil || done != 1 {
		t.Fatalf("completed = %d (%v)", done, err)
	}
	if _, err := c.SubmitJob(ctx, gridservice.JobSpec{SeqTime: 1, MinProcs: 1000}); err == nil {
		t.Fatal("too-wide job must fail")
	}
	if _, err := c.SubmitJob(ctx, gridservice.JobSpec{SeqTime: 1, Cluster: "nope"}); err == nil {
		t.Fatal("unknown cluster pin must fail")
	}

	camp, err := c.SubmitCampaign(ctx, "sdk", 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for {
		cs, err := c.CampaignStatus(ctx, camp.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Done {
			if cs.Completed != 8 || len(cs.PerCluster) != 1 || cs.PerCluster[0] != 8 {
				t.Fatalf("campaign %+v", cs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck: %+v", cs)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRetryPolicy: transient 5xx answers are retried with backoff;
// WithRetries(0) surfaces them immediately.
func TestRetryPolicy(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			api.WriteError(w, http.StatusInternalServerError, "transient")
			return
		}
		api.WriteJSON(w, http.StatusOK, map[string]map[string]int{"fleet": {"completed": 7}})
	}))
	defer srv.Close()

	c := New(srv.URL, WithBackoff(time.Millisecond))
	done, err := c.Completed(context.Background())
	if err != nil || done != 7 {
		t.Fatalf("retried call: %d, %v (calls %d)", done, err, calls.Load())
	}
	if calls.Load() != 3 {
		t.Fatalf("expected 3 attempts, saw %d", calls.Load())
	}

	calls.Store(0)
	c0 := New(srv.URL, WithRetries(0))
	if _, err := c0.Completed(context.Background()); err == nil {
		t.Fatal("no-retry client must surface the 500")
	}
	if calls.Load() != 1 {
		t.Fatalf("no-retry client issued %d attempts", calls.Load())
	}
}
