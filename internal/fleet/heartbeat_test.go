package fleet_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/pkg/client"
)

// TestLeaseExpiryHeartbeat drives the lease TTL over HTTP through
// pkg/client: heartbeats keep a lease alive past its TTL, so the janitor
// never requeues its cell; a heartbeat naming an unknown lease or
// another worker's gets it back in Expired; and a run cancelled while
// its cell is leased abandons the cell, so the worker's late completion
// counts as a duplicate.
func TestLeaseExpiryHeartbeat(t *testing.T) {
	const ttl = 500 * time.Millisecond
	co := fleet.NewCoordinator(fleet.Config{TTL: ttl})
	defer co.Close()
	mux := http.NewServeMux()
	co.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := client.New(srv.URL)
	ctx := context.Background()

	run, err := co.Dispatcher(ctx, "r1", &scenario.Spec{ID: "s1", Kind: "offline"}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cellCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := run.RunCell(cellCtx, 0, 0)
		done <- err
	}()
	ls, err := c.LeaseCells(ctx, fleet.LeaseRequest{WorkerID: "a", Build: co.Build(), MaxCells: 1, WaitSeconds: 5})
	if err != nil || ls == nil {
		t.Fatalf("lease: %v %v", ls, err)
	}

	// The janitor looks every quarter TTL; heartbeats every tenth of one
	// for three TTLs must leave the cell leased all along.
	for end := time.Now().Add(3 * ttl); time.Now().Before(end); time.Sleep(ttl / 10) {
		hb, err := c.Heartbeat(ctx, fleet.HeartbeatRequest{WorkerID: "a", LeaseIDs: []string{ls.ID}})
		if err != nil || len(hb.Expired) != 0 || hb.TTLSeconds != ttl.Seconds() {
			t.Fatalf("heartbeat: %+v, %v", hb, err)
		}
		if n := co.PendingCells(); n != 0 {
			t.Fatalf("%d cells requeued under a heartbeated lease", n)
		}
	}
	if other, err := c.LeaseCells(ctx, fleet.LeaseRequest{WorkerID: "b", Build: co.Build(), MaxCells: 1}); err != nil || other != nil {
		t.Fatalf("another worker leased %+v, %v", other, err)
	}
	for _, w := range co.WorkersStatus() {
		if w.Expirations != 0 {
			t.Fatalf("worker %s: %d expirations", w.ID, w.Expirations)
		}
	}

	hb, err := c.Heartbeat(ctx, fleet.HeartbeatRequest{WorkerID: "b", LeaseIDs: []string{ls.ID, "no-such-lease"}})
	if err != nil || !reflect.DeepEqual(hb.Expired, []string{ls.ID, "no-such-lease"}) {
		t.Fatalf("b's heartbeat: %+v, %v", hb, err)
	}

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cell returned %v", err)
	}
	rows, err := scenario.EncodeRows([][]any{{"late"}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.CompleteCells(ctx, fleet.CompleteRequest{
		WorkerID: "a", LeaseID: ls.ID, RunID: "r1",
		Results: []fleet.CellResult{{CellRef: ls.Cells[0], Rows: rows}},
	})
	if err != nil || resp.Accepted != 0 || resp.Duplicates != 1 {
		t.Fatalf("late completion: %+v, %v", resp, err)
	}
}
