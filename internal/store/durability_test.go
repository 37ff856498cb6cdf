package store_test

// The durability rules of the /v1 run API, driven over HTTP with a
// FaultFS behind the store's WAL. They live here, not in internal/api,
// because the file seam is unexported: only this directory's tests can
// open a store over it.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/scenario"
	"repro/internal/store"
)

// cellGate releases the cells of "durability-gate" runs, one per token.
var (
	cellGate     = make(chan struct{})
	registerOnce sync.Once
)

func registerKinds() {
	registerOnce.Do(func() {
		scenario.RegisterKind("durability-gate", func(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
			n := spec.Int("cells", 1)
			opt.OnCellsStart(n)
			cells := make([]scenario.Cell, 0, n)
			for i := range n {
				select {
				case <-cellGate:
				case <-opt.Context.Done():
					return nil, opt.Context.Err()
				}
				opt.OnCellDone(i, time.Microsecond)
				cells = append(cells, scenario.Cell{Index: i, Values: []any{i, spec.ID}})
			}
			return scenario.NewCellResult("durability-gate", []string{"i", "id"}, 1, cells), nil
		}, map[string]scenario.ParamType{"cells": scenario.IntParam})
		scenario.RegisterKind("durability-quick", func(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
			opt.OnCellsStart(1)
			opt.OnCellDone(0, time.Microsecond)
			return scenario.NewCellResult("durability-quick", []string{"id"}, 1,
				[]scenario.Cell{{Index: 0, Values: []any{spec.ID}}}), nil
		}, nil)
	})
}

// syncGate makes every fsync wait while it is shut and tells the test
// when one has arrived.
type syncGate struct {
	mu      sync.Mutex
	open    chan struct{} // closed while fsyncs may proceed
	arrived chan int      // number of each Sync that found the gate shut
}

func newSyncGate() *syncGate {
	g := &syncGate{open: make(chan struct{}), arrived: make(chan int, 64)}
	close(g.open)
	return g
}

func (g *syncGate) shut() {
	g.mu.Lock()
	g.open = make(chan struct{})
	g.mu.Unlock()
}

// release opens the gate; releasing an open gate is a no-op.
func (g *syncGate) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.open:
	default:
		close(g.open)
	}
}

func (g *syncGate) hook(n int) {
	g.mu.Lock()
	open := g.open
	g.mu.Unlock()
	select {
	case <-open:
	default:
		g.arrived <- n
		<-open
	}
}

type harness struct {
	t   *testing.T
	fs  *store.FaultFS
	g   *syncGate
	st  *store.Store
	svc *api.RunService
	url string
	// checked counts the fsyncs during which the service lock was found
	// free (every one of them, or the test has failed).
	checked atomic.Int32
}

func newHarness(t *testing.T, cfg api.Config) *harness {
	t.Helper()
	registerKinds()
	h := &harness{t: t, fs: &store.FaultFS{}, g: newSyncGate()}
	h.fs.OnSync = func(n int) {
		h.g.hook(n)
		// List takes the service lock: were it held by whoever awaits this
		// fsync, List could not return before the fsync does.
		if returns(func() { h.svc.List() }) {
			h.checked.Add(1)
		} else {
			t.Errorf("fsync %d: List blocked for its whole duration: the service lock is held across it", n)
		}
	}
	st, err := store.OpenFS(t.TempDir(), store.Options{}, h.fs)
	if err != nil {
		t.Fatal(err)
	}
	h.st = st
	cfg.Store = st
	h.svc = api.NewRunService(cfg)
	mux := http.NewServeMux()
	h.svc.Mount(mux)
	srv := httptest.NewServer(mux)
	h.url = srv.URL
	t.Cleanup(func() {
		h.g.release()
		srv.Close()
		h.svc.Close()
		st.Close()
	})
	return h
}

type reply struct {
	code int
	st   api.RunStatus
}

// post submits in the background; the reply arrives on the channel.
func (h *harness) post(body string) <-chan reply {
	out := make(chan reply, 1)
	go func() {
		resp, err := http.Post(h.url+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			h.t.Errorf("POST /v1/runs: %v", err)
			close(out)
			return
		}
		defer resp.Body.Close()
		var r reply
		r.code = resp.StatusCode
		_ = json.NewDecoder(resp.Body).Decode(&r.st)
		out <- r
	}()
	return out
}

func (h *harness) mustPost(body string) api.RunStatus {
	h.t.Helper()
	r := h.await(h.post(body))
	if r.code != http.StatusAccepted {
		h.t.Fatalf("POST %s: status %d", body, r.code)
	}
	return r.st
}

func (h *harness) await(ch <-chan reply) reply {
	h.t.Helper()
	select {
	case r, ok := <-ch:
		if !ok {
			h.t.FailNow()
		}
		return r
	case <-time.After(10 * time.Second):
		h.t.Fatal("submission never answered")
		return reply{}
	}
}

// returns reports whether fn comes back within a generous while.
func returns(fn func()) bool {
	done := make(chan struct{})
	go func() { fn(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// promptly runs fn and fails the test if it does not return: fn takes
// the service lock, which must not be held across an fsync.
func (h *harness) promptly(what string, fn func()) {
	h.t.Helper()
	if !returns(fn) {
		h.t.Fatalf("%s blocked while an fsync was in flight: the service lock is held across it", what)
	}
}

func (h *harness) list() []api.RunStatus {
	h.t.Helper()
	var out []api.RunStatus
	h.promptly("List", func() { out = h.svc.List() })
	return out
}

func (h *harness) status(id string) api.RunStatus {
	h.t.Helper()
	var st api.RunStatus
	h.promptly("Get+Status", func() {
		r, ok := h.svc.Get(id)
		if !ok {
			h.t.Errorf("run %s not found", id)
			return
		}
		st = h.svc.Status(r, true)
	})
	return st
}

func (h *harness) waitState(id string, want api.RunState) {
	h.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st := h.status(id)
		if st.State == want {
			return
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			h.t.Fatalf("run %s is %q (%s), want %q", id, st.State, st.Error, want)
		}
	}
}

// waitListed polls until the listing holds n runs.
func (h *harness) waitListed(n int) []api.RunStatus {
	h.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if l := h.list(); len(l) == n {
			return l
		} else if time.Now().After(deadline) {
			h.t.Fatalf("listing holds %d runs, want %d", len(l), n)
		}
	}
}

// never fails the test if cond becomes true within a short while — for
// things that must not happen before an fsync returns. A correct build
// cannot fail it, however slow the machine.
func (h *harness) never(what string, cond func() bool) {
	h.t.Helper()
	for end := time.Now().Add(40 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if cond() {
			h.t.Fatalf("%s before the record was durable", what)
		}
	}
}

func (h *harness) arrived() {
	h.t.Helper()
	select {
	case <-h.g.arrived:
	case <-time.After(10 * time.Second):
		h.t.Fatal("no fsync arrived")
	}
}

// eventStream collects a run's SSE events; closed is closed when the
// server ends the stream.
type eventStream struct {
	mu     sync.Mutex
	events []api.Event
	closed chan struct{}
}

func (h *harness) stream(id string) *eventStream {
	es := &eventStream{closed: make(chan struct{})}
	go func() {
		defer close(es.closed)
		resp, err := http.Get(h.url + "/v1/runs/" + id + "/events")
		if err != nil {
			h.t.Errorf("GET events: %v", err)
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
				var e api.Event
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					h.t.Errorf("event %q: %v", data, err)
					return
				}
				es.mu.Lock()
				es.events = append(es.events, e)
				es.mu.Unlock()
			}
		}
	}()
	return es
}

func (es *eventStream) sawTerminal() bool {
	es.mu.Lock()
	defer es.mu.Unlock()
	for _, e := range es.events {
		if e.Type == "state" && e.State.Terminal() {
			return true
		}
	}
	return false
}

func (h *harness) resultCode(id string) int {
	resp, err := http.Get(h.url + "/v1/runs/" + id + "/result?format=text")
	if err != nil {
		h.t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

const gateBody = `{"spec":{"id":"g","kind":"durability-gate","params":{"cells":1}},"seed":3}`

func quickBody(id string) string {
	return `{"spec":{"id":"` + id + `","kind":"durability-quick"},"seed":3}`
}

// TestNothingIsToldBeforeItIsDurable holds the fsync of a submission and
// then of a terminal transition and checks what the world can see
// meanwhile: no 202, no executor hand-off, no done state, closing event,
// result or memo hit — while listings, status reads and a second
// client's submission up to its write go on, because the service lock is
// not held across the fsync.
func TestNothingIsToldBeforeItIsDurable(t *testing.T) {
	h := newHarness(t, api.Config{MaxActive: 2})

	// A submission whose fsync does not return.
	h.g.shut()
	first := h.post(gateBody)
	h.arrived()
	listed := h.waitListed(1)
	id := listed[0].ID
	second := h.post(quickBody("second"))
	h.waitListed(2) // registered and written behind the first one's fsync
	h.never("submission answered", func() bool { return len(first) > 0 || len(second) > 0 })
	h.never("run handed to the executor", func() bool {
		st := h.status(id)
		return st.State != api.RunQueued || st.Started != nil
	})
	h.g.release()
	if r := h.await(first); r.code != http.StatusAccepted || r.st.ID != id {
		t.Fatalf("first submission: %d %+v", r.code, r.st)
	}
	secondID := h.await(second).st.ID
	h.waitState(id, api.RunRunning)
	h.waitState(secondID, api.RunDone)

	// Its terminal transition, with the fsync held again.
	es := h.stream(id)
	h.g.shut()
	cellGate <- struct{}{}
	h.arrived()
	dup := h.post(gateBody) // same spec and seed: a hit once the run is done, not before
	h.waitListed(3)
	h.never("finished run visible", func() bool {
		st := h.status(id)
		return st.State != api.RunRunning || st.Finished != nil || st.Rows != 0 ||
			es.sawTerminal() || h.resultCode(id) != http.StatusConflict
	})
	for _, st := range h.list() {
		if st.Cached {
			t.Fatalf("memo hit served on a run whose terminal record is not durable: %+v", st)
		}
	}
	h.g.release()
	h.waitState(id, api.RunDone)
	select {
	case <-es.closed:
	case <-time.After(10 * time.Second):
		t.Fatal("event stream never closed")
	}
	if !es.sawTerminal() {
		t.Fatal("event stream closed without the closing event")
	}
	if r := h.await(dup); r.code != http.StatusAccepted || r.st.Cached {
		t.Fatalf("duplicate submitted before durability: %d cached=%v", r.code, r.st.Cached)
	} else {
		cellGate <- struct{}{}
		h.waitState(r.st.ID, api.RunDone)
	}
	if hit := h.mustPost(gateBody); !hit.Cached || hit.State != api.RunDone {
		t.Fatalf("submission after the run is durable is not a memo hit: %+v", hit)
	}
}

// TestOneFsyncPerAcknowledgedFact counts the WAL's syscalls for each
// thing a client is told, over a history small enough that all but the
// first three submissions evict: a run that executes costs two awaited fsyncs (submission,
// terminal) and three writes (the eviction rides the submit, "running"
// is written and not awaited), a memo hit one of each — and during none
// of them is the service lock held.
func TestOneFsyncPerAcknowledgedFact(t *testing.T) {
	h := newHarness(t, api.Config{MaxActive: 1, MaxHistory: 3})
	for i := 0; i < 8; i++ {
		hit := i%2 == 1 // every other submission repeats the one before it
		body := quickBody("spec-" + string(rune('a'+i/2)))
		w0, s0 := h.fs.Counts()
		st := h.mustPost(body)
		// The terminal record is durable before the state is visible, so
		// nothing of this run is still in flight afterwards.
		h.waitState(st.ID, api.RunDone)
		w1, s1 := h.fs.Counts()
		w, s := w1-w0, s1-s0
		switch {
		case st.Cached != hit:
			t.Fatalf("submission %d: cached=%v, want %v", i, st.Cached, hit)
		case hit && (w != 1 || s != 1):
			t.Fatalf("memo hit %d (evicting): %d writes, %d fsyncs, want 1 and 1", i, w, s)
		case !hit && (w != 3 || s != 2):
			t.Fatalf("executed run %d: %d writes, %d fsyncs, want 3 and 2", i, w, s)
		}
	}
	if sum := h.svc.Summary(); sum.Evicted != 5 || sum.Total != 3 {
		t.Fatalf("summary %+v: want 5 evictions, 3 runs kept", sum)
	}
	if _, syncs := h.fs.Counts(); int(h.checked.Load()) != syncs {
		t.Fatalf("service lock found free during %d of %d fsyncs", h.checked.Load(), syncs)
	}
}

// TestFailedWALAnswers500: a WAL write or fsync that fails surfaces as
// 500 on the submission it belongs to — on the memo-hit path too — and
// on every submission after it, none of which is acknowledged.
func TestFailedWALAnswers500(t *testing.T) {
	for _, tc := range []struct {
		name   string
		failAt int // syscall after the priming run, 1-based
		short  bool
		body   string
		listed int // runs listed after the failure
	}{
		{"write fails", 1, false, quickBody("other"), 1},
		{"write cut short", 1, true, quickBody("other"), 1},
		{"fsync fails", 2, false, quickBody("other"), 2},
		{"fsync fails on a memo hit", 2, false, quickBody("primed"), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, api.Config{MaxActive: 1})
			primed := h.mustPost(quickBody("primed"))
			h.waitState(primed.ID, api.RunDone)

			h.fs.FailAt(tc.failAt, tc.short)
			if r := h.await(h.post(tc.body)); r.code != http.StatusInternalServerError {
				t.Fatalf("submission over a failing WAL answered %d, want 500", r.code)
			}
			l := h.list()
			if len(l) != tc.listed {
				t.Fatalf("%d runs listed, want %d", len(l), tc.listed)
			}
			if len(l) == 2 && l[1].State != api.RunFailed {
				t.Fatalf("run whose record never became durable is %q, want failed", l[1].State)
			}
			// Fail-stop: the log takes nothing more, hits included.
			for _, body := range []string{quickBody("later"), quickBody("primed")} {
				if r := h.await(h.post(body)); r.code != http.StatusInternalServerError {
					t.Fatalf("submission after the failure answered %d, want 500", r.code)
				}
			}
			if got := len(h.list()); got != tc.listed {
				t.Fatalf("a submission the WAL refused was registered (%d runs listed)", got)
			}
			if sum := h.svc.Summary(); sum.Queued+sum.Running != 0 {
				t.Fatalf("executor slots leaked: %+v", sum)
			}
		})
	}
}
