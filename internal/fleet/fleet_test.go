package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
)

// testSpec builds a minimal spec for protocol-level tests (the lease
// payload just carries its JSON; no kind needs to run).
func testSpec(id string) *scenario.Spec {
	return &scenario.Spec{ID: id, Kind: "offline",
		Workload: &scenario.Workload{N: 10, M: 8}, Policies: []string{"ffdh"}}
}

// TestValueCodecRoundTrip: every table value type survives the wire
// with its exact Go type and value — including the float corner cases
// (NaN, ±Inf, shortest-form round-trip) the text renderer would expose.
func TestValueCodecRoundTrip(t *testing.T) {
	vals := []any{
		0, -7, 123456789, int64(1) << 60,
		uint64(0), uint64(math.MaxUint64),
		0.0, -0.0, 1.0 / 3.0, 6.02e23, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1),
		"", "hello", "0.5", "with spaces\tand tabs",
		true, false,
	}
	for _, v := range vals {
		ev, err := scenario.EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %v (%T): %v", v, v, err)
		}
		got, err := ev.Decode()
		if err != nil {
			t.Fatalf("decode %v (%T): %v", v, v, err)
		}
		want := v
		if iv, ok := v.(int64); ok {
			want = int(iv) // int64 intentionally lands as int (the table vocabulary)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %v (%T) -> %v (%T)", v, v, got, got)
		}
	}
	// NaN defeats DeepEqual; check it separately.
	ev, err := scenario.EncodeValue(math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := got.(float64); !ok || !math.IsNaN(f) {
		t.Fatalf("NaN round trip -> %v (%T)", got, got)
	}
	// Types outside the vocabulary are refused, not coerced.
	if _, err := scenario.EncodeValue(int32(3)); err == nil {
		t.Fatal("int32 encoded silently")
	}
	if _, err := scenario.EncodeValue(nil); err == nil {
		t.Fatal("nil encoded silently")
	}
	if _, err := (scenario.Value{T: "x", V: "1"}).Decode(); err == nil {
		t.Fatal("unknown tag decoded")
	}
}

// complete is a test helper: deliver rows for the given cells.
func complete(t *testing.T, c *Coordinator, worker, leaseID, runID string, cells []CellRef, rows [][]any) CompleteResponse {
	t.Helper()
	var results []CellResult
	for _, ref := range cells {
		vals, err := scenario.EncodeRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, CellResult{CellRef: ref, Rows: vals, DurationSeconds: 0.001})
	}
	resp, err := c.CompleteCells(context.Background(), CompleteRequest{
		WorkerID: worker, LeaseID: leaseID, RunID: runID, Results: results,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestLeaseLifecycle: dispatch → lease → complete delivers the typed
// rows back to the blocked dispatcher, and the run records its
// contributor.
func TestLeaseLifecycle(t *testing.T) {
	c := NewCoordinator(Config{TTL: time.Minute})
	defer c.Close()

	cr, err := c.Dispatcher(context.Background(), "r1", testSpec("s1"), 42, 0)
	if err != nil {
		t.Fatal(err)
	}
	type cellOut struct {
		rows [][]any
		err  error
	}
	done := make(chan cellOut, 1)
	go func() {
		rows, _, err := cr.RunCell(context.Background(), 0, 3)
		done <- cellOut{rows, err}
	}()

	ls, err := c.LeaseCells(context.Background(), LeaseRequest{
		WorkerID: "w1", Build: c.Build(), MaxCells: 4, WaitSeconds: 5,
	})
	if err != nil || ls == nil {
		t.Fatalf("lease: %v %v", ls, err)
	}
	if ls.RunID != "r1" || ls.Seed != 42 || len(ls.Cells) != 1 || ls.Cells[0] != (CellRef{0, 3}) {
		t.Fatalf("lease = %+v", ls)
	}
	want := [][]any{{"easy", 1.5, 7, true}}
	resp := complete(t, c, "w1", ls.ID, "r1", ls.Cells, want)
	if resp.Accepted != 1 || resp.Duplicates != 0 {
		t.Fatalf("complete = %+v", resp)
	}
	out := <-done
	if out.err != nil || !reflect.DeepEqual(out.rows, want) {
		t.Fatalf("dispatcher got %v, %v", out.rows, out.err)
	}
	if ws := cr.Workers(); !reflect.DeepEqual(ws, []string{"w1"}) {
		t.Fatalf("contributors = %v", ws)
	}
	st := c.WorkersStatus()
	if len(st) != 1 || st[0].ID != "w1" || st[0].CellsDone != 1 || st[0].Leases != 0 {
		t.Fatalf("workers = %+v", st)
	}
}

// TestLeaseExpiryRequeueAndDuplicate: a lease that never heartbeats
// expires, its cell requeues to another worker, and the dead worker's
// late completion is judged a duplicate — the first accepted result is
// the one the dispatcher sees. This is the satellite-4 recovery path:
// kill a worker mid-run, lose no work, double-deliver safely.
func TestLeaseExpiryRequeueAndDuplicate(t *testing.T) {
	c := NewCoordinator(Config{TTL: 80 * time.Millisecond})
	defer c.Close()

	cr, err := c.Dispatcher(context.Background(), "r1", testSpec("s1"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan [][]any, 1)
	go func() {
		rows, _, _ := cr.RunCell(context.Background(), 0, 0)
		done <- rows
	}()

	// Worker A leases and "dies" (no heartbeat, no completion yet).
	lsA, err := c.LeaseCells(context.Background(), LeaseRequest{WorkerID: "a", Build: c.Build(), MaxCells: 1, WaitSeconds: 5})
	if err != nil || lsA == nil {
		t.Fatalf("lease A: %v %v", lsA, err)
	}
	// Worker B long-polls; the janitor must requeue A's cell to it.
	lsB, err := c.LeaseCells(context.Background(), LeaseRequest{WorkerID: "b", Build: c.Build(), MaxCells: 1, WaitSeconds: 5})
	if err != nil || lsB == nil {
		t.Fatalf("lease B after expiry: %v %v", lsB, err)
	}
	if lsB.Cells[0] != lsA.Cells[0] {
		t.Fatalf("B leased %v, want A's expired %v", lsB.Cells, lsA.Cells)
	}

	if resp := complete(t, c, "b", lsB.ID, "r1", lsB.Cells, [][]any{{"from-b"}}); resp.Accepted != 1 {
		t.Fatalf("B's completion rejected: %+v", resp)
	}
	// A's zombie completion arrives late: pure duplicate, no effect.
	if resp := complete(t, c, "a", lsA.ID, "r1", lsA.Cells, [][]any{{"from-a"}}); resp.Accepted != 0 || resp.Duplicates != 1 {
		t.Fatalf("zombie completion = %+v", resp)
	}
	if rows := <-done; !reflect.DeepEqual(rows, [][]any{{"from-b"}}) {
		t.Fatalf("dispatcher saw %v, want from-b (first accepted wins)", rows)
	}
	if ws := cr.Workers(); !reflect.DeepEqual(ws, []string{"b"}) {
		t.Fatalf("contributors = %v, want [b]", ws)
	}
	st := c.WorkersStatus()
	for _, w := range st {
		if w.ID == "a" && w.Expirations != 1 {
			t.Fatalf("worker a expirations = %d, want 1", w.Expirations)
		}
	}
}

// TestIncompatibleBuildRefused: a worker whose build info differs is
// refused with ErrIncompatible before any work is handed out.
func TestIncompatibleBuildRefused(t *testing.T) {
	c := NewCoordinator(Config{TTL: time.Minute})
	defer c.Close()
	bad := c.Build()
	bad.CatalogHash = "deadbeefdeadbeef"
	_, err := c.LeaseCells(context.Background(), LeaseRequest{WorkerID: "w", Build: bad, MaxCells: 1})
	if !errors.Is(err, ErrIncompatible) {
		t.Fatalf("err = %v, want ErrIncompatible", err)
	}
	if _, err := c.LeaseCells(context.Background(), LeaseRequest{Build: c.Build()}); err == nil {
		t.Fatal("empty worker_id accepted")
	}
}

// TestLongPollTimesOutEmpty: no work → nil lease after the wait, not an
// error and not a hang.
func TestLongPollTimesOutEmpty(t *testing.T) {
	c := NewCoordinator(Config{TTL: time.Minute})
	defer c.Close()
	start := time.Now()
	ls, err := c.LeaseCells(context.Background(), LeaseRequest{WorkerID: "w", Build: c.Build(), WaitSeconds: 0.05})
	if err != nil || ls != nil {
		t.Fatalf("lease = %v, %v", ls, err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("long poll did not respect the wait bound")
	}
}

// hasRun reports whether the coordinator still holds a record of runID.
func (c *Coordinator) hasRun(runID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.runs[runID]
	return ok
}

// waitDropped waits until the coordinator has dropped runID's record
// (the drop runs on its own goroutine once the run's context ends).
func waitDropped(t *testing.T, c *Coordinator, runID string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.hasRun(runID) {
		if time.Now().After(deadline) {
			t.Fatalf("run %s still recorded after its context ended", runID)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunEndFailsOutstanding: when a run's context ends the coordinator
// drops its record, fails its blocked dispatchers instead of leaking
// them, judges a late completion a duplicate, and the run's handle
// still lists the workers that contributed.
func TestRunEndFailsOutstanding(t *testing.T) {
	c := NewCoordinator(Config{TTL: time.Minute})
	defer c.Close()
	ctx, end := context.WithCancel(context.Background())
	cr, err := c.Dispatcher(ctx, "r1", testSpec("s1"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 2)
	for cell := range 2 {
		go func() {
			_, _, err := cr.RunCell(context.Background(), 0, cell)
			errc <- err
		}()
	}
	for c.PendingCells() < 2 {
		time.Sleep(time.Millisecond)
	}
	// w1 finishes one cell; w2 leases the other and is still on it when
	// the run ends.
	ls1, err := c.LeaseCells(context.Background(), LeaseRequest{WorkerID: "w1", Build: c.Build(), MaxCells: 1})
	if err != nil || ls1 == nil {
		t.Fatalf("lease w1: %v %v", ls1, err)
	}
	if resp := complete(t, c, "w1", ls1.ID, "r1", ls1.Cells, [][]any{{1}}); resp.Accepted != 1 {
		t.Fatalf("w1 completion = %+v", resp)
	}
	if err := <-errc; err != nil {
		t.Fatalf("completed cell: %v", err)
	}
	ls2, err := c.LeaseCells(context.Background(), LeaseRequest{WorkerID: "w2", Build: c.Build(), MaxCells: 1})
	if err != nil || ls2 == nil {
		t.Fatalf("lease w2: %v %v", ls2, err)
	}

	end()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("outstanding RunCell = %v, want context.Canceled", err)
	}
	waitDropped(t, c, "r1")
	if resp := complete(t, c, "w2", ls2.ID, "r1", ls2.Cells, [][]any{{2}}); resp.Accepted != 0 || resp.Duplicates != 1 {
		t.Fatalf("late completion = %+v, want one duplicate", resp)
	}
	if _, _, err := cr.RunCell(context.Background(), 1, 0); err == nil {
		t.Fatal("a cell dispatched after the run ended was accepted")
	}
	if c.PendingCells() != 0 {
		t.Fatal("ended run left pending cells")
	}
	if ws := cr.Workers(); !reflect.DeepEqual(ws, []string{"w1"}) {
		t.Fatalf("contributors after the run ended = %v, want [w1]", ws)
	}
}

// TestEndedRunsLeaveNoRecord: the coordinator holds a run's record
// exactly as long as the run's context lives — ended runs leave none,
// and a run whose context has already ended registers nothing.
func TestEndedRunsLeaveNoRecord(t *testing.T) {
	c := NewCoordinator(Config{TTL: time.Minute})
	defer c.Close()
	for i := range 10 {
		id := fmt.Sprintf("r%d", i)
		ctx, end := context.WithCancel(context.Background())
		if _, err := c.Dispatcher(ctx, id, testSpec("s"), 1, 0); err != nil {
			t.Fatal(err)
		}
		if !c.hasRun(id) {
			t.Fatalf("live run %s has no record", id)
		}
		end()
		waitDropped(t, c, id)
	}

	ctx, end := context.WithCancel(context.Background())
	end()
	cr, err := c.Dispatcher(ctx, "late", testSpec("s"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.hasRun("late") {
		t.Fatal("a run whose context had ended was registered")
	}
	if _, _, err := cr.RunCell(context.Background(), 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCell on an ended run = %v, want context.Canceled", err)
	}
	if c.PendingCells() != 0 || cr.Workers() != nil {
		t.Fatalf("ended run left %d pending cells, workers %v", c.PendingCells(), cr.Workers())
	}
	if _, err := c.Dispatcher(context.Background(), "late", testSpec("s"), 1, 0); err != nil {
		t.Fatalf("re-registering the id: %v", err)
	}
}

// TestCloseUnblocksDispatchers: Close fails outstanding cells with
// ErrClosed.
func TestCloseUnblocksDispatchers(t *testing.T) {
	c := NewCoordinator(Config{TTL: time.Minute})
	cr, err := c.Dispatcher(context.Background(), "r1", testSpec("s1"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, _, err := cr.RunCell(context.Background(), 0, 0)
		errc <- err
	}()
	for c.PendingCells() == 0 {
		time.Sleep(time.Millisecond)
	}
	c.Close()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestLeaseBatchIsOldestRun: a lease takes the oldest pending cell and
// fills up with that run's next pending cells in seq order.
func TestLeaseBatchIsOldestRun(t *testing.T) {
	c := NewCoordinator(Config{TTL: time.Minute})
	defer c.Close()
	a, b := &runState{}, &runState{}
	for seq, rs := range []*runState{b, a, b, b, a, b} {
		c.pending = append(c.pending, &task{run: rs, seq: seq})
	}
	var got []int
	for _, tk := range c.pickLocked(3) {
		got = append(got, tk.seq)
	}
	if !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("batch seqs %v, want [0 2 3]", got)
	}
}

// TestEmptyListingsEncodeAsArrays: a coordinator-backed service with no
// runs and no workers lists both as [], not null.
func TestEmptyListingsEncodeAsArrays(t *testing.T) {
	c := NewCoordinator(Config{TTL: time.Minute})
	defer c.Close()
	svc := api.NewRunService(api.Config{Fleet: c})
	defer svc.Close()
	mux := http.NewServeMux()
	svc.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for _, path := range []string{"/v1/runs", "/v1/fleet/workers"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != "[]\n" {
			t.Fatalf("GET %s = %q, want []", path, body)
		}
	}
}

// PendingCells reports the coordinator's queue depth.
func (c *Coordinator) PendingCells() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}
