package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// fakeFleet implements the Fleet seam without a coordinator: it
// records the runs the service registers and hands back a handle that
// lists fixed workers, so the integration contract is testable in
// isolation. The test kinds have no remoteable fan-out, so their cells
// stay local and the handle runs none.
type fakeFleet struct {
	mu      sync.Mutex
	workers []string
	runs    []string
}

func (f *fakeFleet) Dispatcher(_ context.Context, runID string, _ *scenario.Spec, _ uint64, _ int) (FleetRun, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.runs = append(f.runs, runID)
	return fakeRun(f.workers), nil
}

// fakeRun is a fakeFleet run handle.
type fakeRun []string

func (w fakeRun) RunCell(context.Context, int, int) ([][]any, time.Duration, error) {
	return nil, 0, errors.New("fake fleet runs no cells")
}

func (w fakeRun) Workers() []string { return append([]string(nil), w...) }

// TestVersionEndpoint: GET /v1/version reports the build identity a
// fleet worker handshakes against — in particular the catalog hash,
// which must match the scenario package's own.
func TestVersionEndpoint(t *testing.T) {
	_, srv := newTestService(t, Config{})
	resp, err := http.Get(srv.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var v VersionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.Version == "" || v.GoVersion == "" {
		t.Fatalf("incomplete version info: %+v", v)
	}
	if v.CatalogHash != scenario.CatalogHash() {
		t.Fatalf("catalog hash %q, want %q", v.CatalogHash, scenario.CatalogHash())
	}
	if v.Scenarios != len(scenario.Catalog()) || v.Kinds != len(scenario.Kinds()) {
		t.Fatalf("catalog counts %+v", v)
	}
}

// TestVersionKeys pins /v1/version's JSON keys and their order: the
// build identity's three fields, then the catalog's size.
func TestVersionKeys(t *testing.T) {
	_, srv := newTestService(t, Config{})
	resp, err := http.Get(srv.URL + "/v1/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var value json.RawMessage
		if err := dec.Decode(&value); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
	}
	want := []string{"version", "go_version", "catalog_hash", "scenarios", "kinds"}
	if !reflect.DeepEqual(keys, want) {
		t.Fatalf("keys %v, want %v", keys, want)
	}
}

// TestRetryAfterScalesWithBacklog: the 429 hint grows with the number
// of runs waiting beyond the executor pool instead of the old flat 1s,
// so rejected clients back off proportionally to real saturation.
func TestRetryAfterScalesWithBacklog(t *testing.T) {
	s, srv := newTestService(t, Config{MaxActive: 1, MaxPending: 3})

	if got := s.RetryAfter(); got != time.Second {
		t.Fatalf("idle RetryAfter = %v, want 1s", got)
	}
	blocker, _, _ := postRun(t, srv.URL, `{"spec":{"id":"b","kind":"api-gate","params":{"cells":1}}}`)
	waitState(t, srv.URL, blocker.ID, RunRunning)
	var queued []RunStatus
	for i := 0; i < 3; i++ {
		st, code, _ := postRun(t, srv.URL, `{"spec":{"id":"q","kind":"api-gate","params":{"cells":1}}}`)
		if code != http.StatusAccepted {
			t.Fatalf("queued submit %d: %d", i, code)
		}
		queued = append(queued, st)
	}
	// active = 4, pool = 1: three runs are waiting -> 4s hint.
	if got := s.RetryAfter(); got != 4*time.Second {
		t.Fatalf("saturated RetryAfter = %v, want 4s", got)
	}
	_, code, hdr := postRun(t, srv.URL, `{"spec":{"id":"x","kind":"api-gate","params":{"cells":1}}}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit: %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "4" {
		t.Fatalf("Retry-After = %q, want \"4\" (1s + 3 waiting)", ra)
	}
	for range 4 {
		gate <- struct{}{}
	}
	waitState(t, srv.URL, blocker.ID, RunDone)
	for _, st := range queued {
		waitState(t, srv.URL, st.ID, RunDone)
	}
	if got := s.RetryAfter(); got != time.Second {
		t.Fatalf("drained RetryAfter = %v, want 1s", got)
	}
}

// TestRunStatusWorkersField: with a Fleet configured, run statuses and
// listings carry the contributing worker ids, read from the handle the
// run keeps — while the run executes and after it ends — and a memo hit
// shows none.
func TestRunStatusWorkersField(t *testing.T) {
	ff := &fakeFleet{workers: []string{"host-a", "host-b"}}
	_, srv := newTestService(t, Config{MaxHistory: 4, Fleet: ff})

	body := `{"spec":{"id":"w","kind":"api-gate","params":{"cells":1}}}`
	st, code, _ := postRun(t, srv.URL, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// The gate kind counts its cell before blocking on the gate, and the
	// handle is in place before the kind starts.
	running := waitState(t, srv.URL, st.ID, RunRunning)
	for running.CellsTotal == 0 {
		time.Sleep(2 * time.Millisecond)
		running = getStatus(t, srv.URL, st.ID)
	}
	if !reflect.DeepEqual(running.Workers, []string{"host-a", "host-b"}) {
		t.Fatalf("workers while running = %v", running.Workers)
	}
	gate <- struct{}{}
	final := waitState(t, srv.URL, st.ID, RunDone)
	if !reflect.DeepEqual(final.Workers, []string{"host-a", "host-b"}) {
		t.Fatalf("workers = %v", final.Workers)
	}
	ff.mu.Lock()
	dispatched := append([]string(nil), ff.runs...)
	ff.mu.Unlock()
	if !reflect.DeepEqual(dispatched, []string{st.ID}) {
		t.Fatalf("dispatcher saw runs %v, want [%s]", dispatched, st.ID)
	}

	hit, _, _ := postRun(t, srv.URL, body)
	if !hit.Cached || hit.Workers != nil {
		t.Fatalf("memo hit: cached=%v workers=%v, want cached and no workers", hit.Cached, hit.Workers)
	}
	var list []RunStatus
	resp, err := http.Get(srv.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || !reflect.DeepEqual(list[0].Workers, []string{"host-a", "host-b"}) || list[1].Workers != nil {
		t.Fatalf("listing workers = %+v", list)
	}
}

// TestSSESubscriberSurvivesEviction: a live SSE subscriber holds the
// run across store eviction — it still receives the complete history
// and the terminal event, even though the run is already gone from the
// lookup path (404). Satellite-4a regression: run-store eviction racing
// a live subscriber must not truncate or corrupt the stream.
func TestSSESubscriberSurvivesEviction(t *testing.T) {
	_, srv := newTestService(t, Config{MaxActive: 2, MaxHistory: 2})

	st, code, _ := postRun(t, srv.URL, `{"spec":{"id":"g","kind":"api-gate","params":{"cells":3}}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitState(t, srv.URL, st.ID, RunRunning)
	type streamOut struct {
		events []Event
		err    error
	}
	outc := make(chan streamOut, 1)
	go func() {
		events, err := streamEvents(context.Background(), srv.URL, st.ID)
		outc <- streamOut{events, err}
	}()
	// Let the subscriber attach mid-run, then finish the run while
	// hammering the store with runs that evict it.
	time.Sleep(10 * time.Millisecond)
	for range 3 {
		gate <- struct{}{}
	}
	waitState(t, srv.URL, st.ID, RunDone)
	for i := 0; i < 4; i++ {
		st2, code, _ := postRun(t, srv.URL, `{"spec":{"id":"f","kind":"api-sleep","params":{"cells":1,"us":1}}}`)
		if code != http.StatusAccepted {
			t.Fatalf("filler submit %d: %d", i, code)
		}
		waitState(t, srv.URL, st2.ID, RunDone)
	}
	// The run is evicted...
	resp, err := http.Get(srv.URL + "/v1/runs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted run status: %d, want 404", resp.StatusCode)
	}
	// ...yet the subscriber saw everything, terminally closed.
	out := <-outc
	if out.err != nil {
		t.Fatalf("stream: %v", out.err)
	}
	cells := 0
	for _, e := range out.events {
		if e.Type == "cell" {
			cells++
		}
	}
	last := out.events[len(out.events)-1]
	if cells != 3 || last.Type != "state" || last.State != RunDone {
		t.Fatalf("subscriber saw %d cell events, last %+v", cells, last)
	}
}
