package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	_ "repro/internal/experiments" // register scenario kinds + catalog
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// newFleetDaemon starts a coordinator-backed daemon: the same broker +
// run service the plain tests use, with a fleet coordinator wired into
// the run executor and the /v1/fleet surface mounted.
func newFleetDaemon(t *testing.T, ttl time.Duration) (*Client, *fleet.Coordinator) {
	t.Helper()
	co := fleet.NewCoordinator(fleet.Config{TTL: ttl})
	t.Cleanup(co.Close) // runs after the daemon's own cleanup
	return New(serveDaemon(t, api.Config{Fleet: co})), co
}

// TestFleetOverHTTP is the full distributed loop over real HTTP: a
// coordinator daemon, two worker loops driving it through the SDK's
// Transport implementation, a run submitted through the ordinary run
// API — and a text result byte-identical to the local rendering, with
// the contributing workers reported on the run status.
func TestFleetOverHTTP(t *testing.T) {
	c, _ := newFleetDaemon(t, 30*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Workers handshake exactly like cmd/gridd -worker does.
	v, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mine := api.CurrentBuild()
	if v.CatalogHash != mine.CatalogHash {
		t.Fatalf("catalog hash skew: daemon %s, local %s", v.CatalogHash, mine.CatalogHash)
	}
	var wg sync.WaitGroup
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = fleet.RunWorker(ctx, c, fleet.WorkerConfig{
				ID: fmt.Sprintf("httpw%d", i), Batch: 2, Poll: 100 * time.Millisecond, Workers: 2,
			})
		}()
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	seed := uint64(42)
	final, err := c.RunToCompletion(ctx, scenario.HTTPRequest{ID: "mrt", Seed: &seed, Quick: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != api.RunDone {
		t.Fatalf("state %q: %s", final.State, final.Error)
	}
	if len(final.Workers) == 0 {
		t.Fatalf("no fleet workers on run status: %+v", final)
	}
	for _, w := range final.Workers {
		if w != "httpw0" && w != "httpw1" {
			t.Fatalf("unexpected contributor %q", w)
		}
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
		t.Fatalf("distributed text result differs from local rendering:\n--- local\n%s\n--- fleet\n%s", buf.String(), text)
	}

	// The fleet view lists both workers.
	ws, err := c.FleetWorkers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("fleet view: %+v", ws)
	}
}

// TestLeaseIncompatibleMapsTo409: the SDK surfaces the coordinator's
// build refusal as fleet.ErrIncompatible (so fleet.RunWorker stops
// instead of retrying forever).
func TestLeaseIncompatibleMapsTo409(t *testing.T) {
	c, _ := newFleetDaemon(t, 30*time.Second)
	bad := api.CurrentBuild()
	bad.CatalogHash = "0000000000000000"
	_, err := c.LeaseCells(context.Background(), fleet.LeaseRequest{WorkerID: "w", Build: bad})
	if !errors.Is(err, fleet.ErrIncompatible) {
		t.Fatalf("err = %v, want fleet.ErrIncompatible", err)
	}
}

// TestCompleteCellsRetriesIdempotently: completion reports retry
// through transport failures — the endpoint is idempotent server-side,
// so the SDK may reissue a POST it normally would not.
func TestCompleteCellsRetriesIdempotently(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		api.WriteJSON(w, http.StatusOK, fleet.CompleteResponse{Accepted: 1})
	}))
	defer srv.Close()
	c := New(srv.URL, WithBackoff(time.Millisecond))
	resp, err := c.CompleteCells(context.Background(), fleet.CompleteRequest{WorkerID: "w"})
	if err != nil || resp.Accepted != 1 {
		t.Fatalf("resp %+v, err %v (calls %d)", resp, err, calls.Load())
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (one failure, one retry)", calls.Load())
	}
	// An ordinary POST still refuses to retry a 5xx.
	calls.Store(0)
	if _, err := c.SubmitRun(context.Background(), scenario.HTTPRequest{ID: "mrt"}); err == nil {
		t.Fatal("submit succeeded against a 502 server")
	}
	if calls.Load() != 1 {
		t.Fatalf("non-idempotent POST was retried: %d calls", calls.Load())
	}
}

// TestJitterBounds: the retry jitter stays within [d/2, d] — spread
// enough to de-synchronize a fleet, never longer than the nominal wait.
func TestJitterBounds(t *testing.T) {
	d := 100 * time.Millisecond
	distinct := map[time.Duration]bool{}
	for range 200 {
		j := jitter(d)
		if j < d/2 || j > d {
			t.Fatalf("jitter(%v) = %v, outside [%v, %v]", d, j, d/2, d)
		}
		distinct[j] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("jitter produced only %d distinct values in 200 draws", len(distinct))
	}
	if jitter(0) != 0 || jitter(1) != 1 {
		t.Fatal("degenerate durations must pass through")
	}
}
