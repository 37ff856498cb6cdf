package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	_ "repro/internal/experiments" // register the scenario kinds + catalog
	"repro/internal/scenario"
)

// Test-only kinds. "api-sleep" runs n cells of a fixed wall duration
// each, honouring the cancellation/progress contract the experiments
// worker pool implements; "api-gate" blocks each cell until the test
// releases it, for deterministic queue/cancel interleavings.
var (
	registerOnce sync.Once
	gate         chan struct{}
)

func registerTestKinds() {
	registerOnce.Do(func() {
		gate = make(chan struct{})
		scenario.RegisterKind("api-sleep", func(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
			n := spec.Int("cells", 4)
			delay := time.Duration(spec.Int("us", 1000)) * time.Microsecond
			if opt.OnCellsStart != nil {
				opt.OnCellsStart(n)
			}
			cells := make([]scenario.Cell, 0, n)
			for i := range n {
				if opt.Context != nil {
					select {
					case <-time.After(delay):
					case <-opt.Context.Done():
						return nil, opt.Context.Err()
					}
				} else {
					time.Sleep(delay)
				}
				if opt.OnCellDone != nil {
					opt.OnCellDone(i, delay)
				}
				cells = append(cells, scenario.Cell{Index: i, Values: []any{i, i * i}})
			}
			return scenario.NewCellResult("api-sleep", []string{"i", "sq"}, 1, cells), nil
		}, map[string]scenario.ParamType{"cells": scenario.IntParam, "us": scenario.IntParam})
		scenario.RegisterKind("api-panic", func(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
			panic("kaboom")
		}, nil)
		scenario.RegisterKind("api-gate", func(spec *scenario.Spec, opt scenario.RunOptions) (*scenario.Result, error) {
			n := spec.Int("cells", 1)
			if opt.OnCellsStart != nil {
				opt.OnCellsStart(n)
			}
			cells := make([]scenario.Cell, 0, n)
			for i := range n {
				select {
				case <-gate:
				case <-opt.Context.Done():
					return nil, opt.Context.Err()
				}
				if opt.OnCellDone != nil {
					opt.OnCellDone(i, time.Microsecond)
				}
				cells = append(cells, scenario.Cell{Index: i, Values: []any{i}})
			}
			return scenario.NewCellResult("api-gate", []string{"i"}, 1, cells), nil
		}, map[string]scenario.ParamType{"cells": scenario.IntParam})
	})
}

func newTestService(t *testing.T, cfg Config) (*RunService, *httptest.Server) {
	t.Helper()
	registerTestKinds()
	s := NewRunService(cfg)
	mux := http.NewServeMux()
	s.Mount(mux)
	srv := httptest.NewServer(Wrap(mux, nil))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postRun(t *testing.T, url, body string) (RunStatus, int, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return st, resp.StatusCode, resp.Header
}

func getStatus(t *testing.T, url, id string) RunStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func cancelRun(t *testing.T, url, id string) (RunStatus, int) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, url+"/v1/runs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return st, resp.StatusCode
}

func waitState(t *testing.T, url, id string, want RunState) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := getStatus(t, url, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("run %s state %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// streamEvents consumes the SSE endpoint until it closes, returning
// the decoded events.
func streamEvents(ctx context.Context, url, id string) ([]Event, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/runs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				return events, err
			}
			events = append(events, e)
		}
	}
	return events, sc.Err()
}

// TestV1LifecycleMatchesLegacyTable: a built-in catalog scenario run
// through POST /v1/runs + the event stream reproduces the exact
// pre-redesign text table via the text renderer, and the typed status
// is consistent with the cells streamed.
func TestV1LifecycleMatchesLegacyTable(t *testing.T) {
	_, srv := newTestService(t, Config{})

	st, code, _ := postRun(t, srv.URL, `{"id":"mrt","quick":true,"seed":42}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if st.ID == "" || st.SpecID != "mrt" || st.Kind != "mrt" || st.Seed != 42 {
		t.Fatalf("submit status %+v", st)
	}

	events, err := streamEvents(context.Background(), srv.URL, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	cellEvents := 0
	for _, e := range events {
		if e.Type == "cell" {
			cellEvents++
		}
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != RunDone {
		t.Fatalf("stream did not end with done: %+v", last)
	}

	final := getStatus(t, srv.URL, st.ID)
	if final.State != RunDone || final.CellsDone != final.CellsTotal || final.CellsDone != cellEvents {
		t.Fatalf("final status %+v (cell events %d)", final, cellEvents)
	}
	if len(final.Cells) != cellEvents {
		t.Fatalf("per-cell timings: %d, want %d", len(final.Cells), cellEvents)
	}

	// Text result must be byte-identical to the engine's own rendering.
	resp, err := http.Get(srv.URL + "/v1/runs/" + st.ID + "/result?format=text")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := readAll(resp)
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
	if got != buf.String() {
		t.Fatalf("text result differs from direct run:\n got: %q\nwant: %q", got, buf.String())
	}

	// JSON result carries the typed cells with axes/metrics split.
	var rj scenario.ResultJSON
	resp2, err := http.Get(srv.URL + "/v1/runs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&rj); err != nil {
		t.Fatal(err)
	}
	if rj.ID != "mrt" || len(rj.Cells) != len(want.Table.Rows) || rj.Axes != 2 {
		t.Fatalf("json result %+v", rj)
	}
	if rj.Cells[0].Axes["m"] == nil || rj.Cells[0].Metrics["MRT"] == nil {
		t.Fatalf("cell 0 axes/metrics: %+v", rj.Cells[0])
	}

	// An inline spec (the generic offline kind) renders the same table
	// as a direct run of that spec.
	seed := uint64(42)
	inline := &scenario.Spec{ID: "inline-sweep", Kind: "offline",
		Workload: &scenario.Workload{N: 40, M: 16, Weighted: true},
		Policies: []string{"mrt", "ffdh"},
		Metrics:  []string{"cmax_ratio", "util"}}
	body, err := json.Marshal(scenario.HTTPRequest{Spec: inline, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	st2, code, _ := postRun(t, srv.URL, string(body))
	if code != http.StatusAccepted || st2.Kind != "offline" || st2.Seed != 42 {
		t.Fatalf("inline submit: %d %+v", code, st2)
	}
	waitState(t, srv.URL, st2.ID, RunDone)
	resp3, err := http.Get(srv.URL + "/v1/runs/" + st2.ID + "/result?format=text")
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := readAll(resp3)
	want2, err := scenario.Run(inline, scenario.RunOptions{Seed: 42, SeedExplicit: true})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := want2.Table.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got2 != buf.String() {
		t.Fatalf("inline spec differs from direct run:\n got: %q\nwant: %q", got2, buf.String())
	}
}

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.String(), err
}

// TestCancelBeforeStart: a queued run cancels instantly without ever
// executing, and the slot accounting still drains cleanly.
func TestCancelBeforeStart(t *testing.T) {
	_, srv := newTestService(t, Config{MaxActive: 1})

	blocker, code, _ := postRun(t, srv.URL, `{"spec":{"id":"b","kind":"api-gate","params":{"cells":1}}}`)
	if code != http.StatusAccepted {
		t.Fatalf("blocker submit %d", code)
	}
	waitState(t, srv.URL, blocker.ID, RunRunning)

	queued, code, _ := postRun(t, srv.URL, `{"spec":{"id":"q","kind":"api-gate","params":{"cells":1}}}`)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit %d", code)
	}
	if st := getStatus(t, srv.URL, queued.ID); st.State != RunQueued {
		t.Fatalf("state %q, want queued", st.State)
	}
	st, code := cancelRun(t, srv.URL, queued.ID)
	if code != http.StatusOK || st.State != RunCancelled {
		t.Fatalf("cancel: %d %+v", code, st)
	}
	if st.Started != nil || st.CellsDone != 0 {
		t.Fatalf("cancelled-before-start run executed: %+v", st)
	}
	// Cancelling a finished run conflicts.
	if _, code := cancelRun(t, srv.URL, queued.ID); code != http.StatusConflict {
		t.Fatalf("double cancel: %d", code)
	}

	gate <- struct{}{} // release the blocker
	waitState(t, srv.URL, blocker.ID, RunDone)
}

// TestCancelMidRun: cancelling a running paper-style sweep stops it
// within one cell's duration, keeps the cells that completed, and
// leaks no goroutines.
func TestCancelMidRun(t *testing.T) {
	_, srv := newTestService(t, Config{})

	// Warm up the HTTP/keepalive plumbing, then baseline goroutines.
	warm, _, _ := postRun(t, srv.URL, `{"spec":{"id":"w","kind":"api-sleep","params":{"cells":2,"us":100}}}`)
	waitState(t, srv.URL, warm.ID, RunDone)
	base := runtime.NumGoroutine()

	st, code, _ := postRun(t, srv.URL,
		`{"spec":{"id":"slow","kind":"api-sleep","params":{"cells":1000,"us":5000}}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit %d", code)
	}
	// Wait until at least one cell completed, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for getStatus(t, srv.URL, st.ID).CellsDone == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no cell progress")
		}
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	if _, code := cancelRun(t, srv.URL, st.ID); code != http.StatusOK {
		t.Fatalf("cancel %d", code)
	}
	var final RunStatus
	for {
		final = getStatus(t, srv.URL, st.ID)
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("run did not stop: %+v", final)
		}
		time.Sleep(time.Millisecond)
	}
	// One cell is 5ms; well under a second proves the cancel was
	// answered within ~one cell, not after the remaining ~990 cells.
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	if final.State != RunCancelled {
		t.Fatalf("state %q, want cancelled", final.State)
	}
	if final.CellsDone == 0 || final.CellsDone >= 1000 {
		t.Fatalf("partial progress expected, got %d cells", final.CellsDone)
	}

	// Goroutines must settle back to the baseline (no leaked workers,
	// streams or contexts).
	for end := time.Now().Add(5 * time.Second); ; {
		if runtime.NumGoroutine() <= base+2 {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("goroutines leaked: %d now vs %d baseline", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSSEClientDisconnect: a subscriber dropping mid-run neither
// blocks the run nor leaks the handler goroutine.
func TestSSEClientDisconnect(t *testing.T) {
	_, srv := newTestService(t, Config{})

	st, _, _ := postRun(t, srv.URL, `{"spec":{"id":"s","kind":"api-sleep","params":{"cells":200,"us":2000}}}`)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = streamEvents(ctx, srv.URL, st.ID) // dies with ctx
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("disconnected stream never returned")
	}
	// The run itself keeps going to completion.
	final := waitState(t, srv.URL, st.ID, RunDone)
	if final.CellsDone != 200 {
		t.Fatalf("run affected by disconnect: %+v", final)
	}
	// A late subscriber still replays the full history.
	events, err := streamEvents(context.Background(), srv.URL, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 202 { // running + 200 cells + done
		t.Fatalf("late replay: %d events, want 202", len(events))
	}
}

// TestRunnerPanicContained: a panicking runner fails its run instead
// of crashing the daemon, and the executor keeps serving.
func TestRunnerPanicContained(t *testing.T) {
	_, srv := newTestService(t, Config{})

	st, code, _ := postRun(t, srv.URL, `{"spec":{"id":"p","kind":"api-panic"}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	var final RunStatus
	for {
		final = getStatus(t, srv.URL, st.ID)
		if final.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("panicking run never finalized: %+v", final)
		}
		time.Sleep(time.Millisecond)
	}
	if final.State != RunFailed || !strings.Contains(final.Error, "panicked") {
		t.Fatalf("final %+v", final)
	}
	// The worker survived: a normal run still executes afterwards.
	next, _, _ := postRun(t, srv.URL, `{"spec":{"id":"n","kind":"api-sleep","params":{"cells":1,"us":1}}}`)
	waitState(t, srv.URL, next.ID, RunDone)
}

// TestStoreEvictionOrder: the bounded store evicts the oldest terminal
// runs first and never the live ones.
func TestStoreEvictionOrder(t *testing.T) {
	s, srv := newTestService(t, Config{MaxHistory: 3})

	var ids []string
	for i := 0; i < 6; i++ {
		st, code, _ := postRun(t, srv.URL, `{"spec":{"id":"e","kind":"api-sleep","params":{"cells":1,"us":1}}}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		waitState(t, srv.URL, st.ID, RunDone)
		ids = append(ids, st.ID)
	}
	list := s.List()
	if len(list) != 3 {
		t.Fatalf("store holds %d runs, want 3", len(list))
	}
	for i, st := range list {
		if want := ids[3+i]; st.ID != want {
			t.Fatalf("slot %d holds %s, want %s (oldest-first eviction)", i, st.ID, want)
		}
	}
	if sum := s.Summary(); sum.Evicted != 3 || sum.Total != 3 {
		t.Fatalf("summary %+v", sum)
	}
	// Evicted runs are gone from the lookup path too.
	resp, err := http.Get(srv.URL + "/v1/runs/" + ids[0])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted run lookup: %d", resp.StatusCode)
	}
}

// TestBusyRetryAfter: submissions past the queue bound answer 429 with
// a Retry-After hint.
func TestBusyRetryAfter(t *testing.T) {
	_, srv := newTestService(t, Config{MaxActive: 1, MaxPending: 1})

	blocker, _, _ := postRun(t, srv.URL, `{"spec":{"id":"b","kind":"api-gate","params":{"cells":1}}}`)
	waitState(t, srv.URL, blocker.ID, RunRunning)
	queued, code, _ := postRun(t, srv.URL, `{"spec":{"id":"q","kind":"api-gate","params":{"cells":1}}}`)
	if code != http.StatusAccepted {
		t.Fatalf("queued submit %d", code)
	}
	_, code, hdr := postRun(t, srv.URL, `{"spec":{"id":"x","kind":"api-gate","params":{"cells":1}}}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-bound submit: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	gate <- struct{}{}
	gate <- struct{}{}
	waitState(t, srv.URL, blocker.ID, RunDone)
	waitState(t, srv.URL, queued.ID, RunDone)
}

// TestSubmitValidation: bad submissions fail synchronously — malformed
// JSON, neither or both of id and spec, unknown fields and kinds are
// 400, an unknown catalog id 404.
func TestSubmitValidation(t *testing.T) {
	_, srv := newTestService(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`{`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`{"id":"mrt","spec":{"id":"x","kind":"mrt"}}`, http.StatusBadRequest},
		{`{"id":"no-such-scenario"}`, http.StatusNotFound},
		{`{"spec":{"id":"x","kind":"no-such-kind"}}`, http.StatusBadRequest},
		{`{"id":"mrt","bogus":true}`, http.StatusBadRequest},
		{`{"spec":{"id":"big","kind":"offline","workload":{"n":1000000}}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		_, code, _ := postRun(t, srv.URL, tc.body)
		if code != tc.want {
			t.Errorf("POST /v1/runs %s: %d, want %d", tc.body, code, tc.want)
		}
	}
}

// TestInlineSpecRefusesServerPath: an inline spec cannot name a file on
// the daemon's host through params.swf. The submission is refused
// before a run exists, so nothing opens the path.
func TestInlineSpecRefusesServerPath(t *testing.T) {
	s, srv := newTestService(t, Config{})
	path := t.TempDir() + "/nonexistent.swf"
	body := fmt.Sprintf(`{"spec":{"kind":"replay","policies":["fcfs"],"params":{"swf":%q}},"quick":true}`, path)
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "params.swf") || !strings.Contains(msg, "gridctl local") {
		t.Fatalf("POST /v1/runs with params.swf: %d %s, want 400 naming params.swf and gridctl local", resp.StatusCode, msg)
	}
	if strings.Contains(msg, path) {
		t.Fatalf("refusal echoes the path: %s", msg)
	}
	if sum := s.Summary(); sum.Total != 0 {
		t.Fatalf("a refused submission created %d runs", sum.Total)
	}
}

// TestInlineSpecSizeBounds: an inline spec asking for more than
// maxInlineJobs jobs or a platform wider than maxInlineProcs is refused
// with a 400 that names the field and points to gridctl local, wherever
// the size is set, and no run is created; every catalog spec and every
// example spec is still accepted inline.
func TestInlineSpecSizeBounds(t *testing.T) {
	s, srv := newTestService(t, Config{})
	for field, spec := range map[string]string{
		"params.ms":             `{"kind":"mrt","params":{"ms":[2000000],"ns":[50]}}`,
		"params.m":              `{"kind":"batch","params":{"m":4097,"n":20}}`,
		"params.n":              `{"kind":"batch","params":{"m":16,"n":100001}}`,
		"params.ns":             `{"kind":"mrt","params":{"ms":[16],"ns":[50,100001]}}`,
		"workload.n":            `{"kind":"offline","workload":{"n":1000000}}`,
		"workload.m":            `{"kind":"offline","workload":{"n":20,"m":4097}}`,
		"platform.m":            `{"kind":"online","workload":{"n":20},"platform":{"m":4097}}`,
		"platform.clusters[].m": `{"kind":"grid","workload":{"n":20},"platform":{"clusters":[{"name":"a","m":8},{"name":"b","m":4097}]}}`,
		"grid.campaign_tasks":   `{"kind":"grid","workload":{"n":20},"grid":{"campaign_tasks":100001}}`,
		"params.runs":           `{"kind":"cigri","params":{"runs":100001}}`,
	} {
		t.Run(field, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(`{"spec":`+spec+`}`))
			if err != nil {
				t.Fatal(err)
			}
			msg, err := readAll(resp)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, field+" = ") || !strings.Contains(msg, "gridctl local") {
				t.Fatalf("POST /v1/runs %s: %d %s, want 400 naming %s and gridctl local", spec, resp.StatusCode, msg, field)
			}
		})
	}
	// A size below 1 is refused before it can take, and hang, an executor slot.
	for _, c := range []struct{ spec, param string }{
		{`{"kind":"mrt","params":{"ms":[0]}}`, "ms"},
		{`{"kind":"batch","params":{"m":0}}`, "m"},
		{`{"kind":"criteria","params":{"m":0}}`, "m"},
	} {
		t.Run(c.spec, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(`{"spec":`+c.spec+`}`))
			if err != nil {
				t.Fatal(err)
			}
			var body struct{ Error string }
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if want := fmt.Sprintf("param %q holds 0", c.param); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, want) {
				t.Fatalf("POST /v1/runs %s: %d %q, want 400 naming %s", c.spec, resp.StatusCode, body.Error, want)
			}
		})
	}
	if sum := s.Summary(); sum.Total != 0 {
		t.Fatalf("refused submissions created %d runs", sum.Total)
	}

	accept := func(label string, spec *scenario.Spec) {
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var req scenario.HTTPRequest
		if err := json.Unmarshal([]byte(`{"spec":`+string(body)+`}`), &req); err != nil {
			t.Fatal(err)
		}
		if _, herr := s.resolveSpec(&req); herr != nil {
			t.Errorf("%s refused inline: %d %s", label, herr.code, herr.msg)
		}
	}
	for _, spec := range scenario.Catalog() {
		accept("catalog "+spec.ID, spec)
	}
	examples, err := filepath.Glob("../../examples/scenario/*.json")
	if err != nil || len(examples) == 0 {
		t.Fatalf("no example specs: %v", err)
	}
	for _, path := range examples {
		spec, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		accept(path, spec)
	}
}

// TestConcurrentSubmissions: parallel clients hammering POST /v1/runs
// stay race-clean and every accepted run terminates.
func TestConcurrentSubmissions(t *testing.T) {
	s, srv := newTestService(t, Config{MaxActive: 4, MaxPending: 32, MaxHistory: 64})

	const clients = 16
	var wg sync.WaitGroup
	ids := make(chan string, clients*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2; k++ {
				st, code, _ := postRun(t, srv.URL, `{"spec":{"id":"c","kind":"api-sleep","params":{"cells":3,"us":200}}}`)
				if code == http.StatusAccepted {
					ids <- st.ID
				} else if code != http.StatusTooManyRequests {
					t.Errorf("submit: %d", code)
				}
			}
		}()
	}
	wg.Wait()
	close(ids)
	n := 0
	for id := range ids {
		st := waitState(t, srv.URL, id, RunDone)
		if st.CellsDone != 3 {
			t.Errorf("run %s: %d cells", id, st.CellsDone)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no run accepted")
	}
	sum := s.Summary()
	if sum.Done != n {
		t.Fatalf("summary done %d, want %d", sum.Done, n)
	}
}

// TestSummarySingleSourceOfTruth: the /stats runs aggregation equals a
// recomputation from the /v1 listing and the stored Result cells.
func TestSummarySingleSourceOfTruth(t *testing.T) {
	s, srv := newTestService(t, Config{})
	for i := 0; i < 3; i++ {
		st, _, _ := postRun(t, srv.URL, `{"id":"treedlt","quick":true}`)
		waitState(t, srv.URL, st.ID, RunDone)
	}
	sum := s.Summary()
	var recomputed RunsSummary
	recomputed.Evicted = sum.Evicted
	recomputed.CacheHits = sum.CacheHits
	for _, st := range s.List() {
		recomputed.Total++
		switch st.State {
		case RunDone:
			recomputed.Done++
		case RunFailed:
			recomputed.Failed++
		case RunCancelled:
			recomputed.Cancelled++
		case RunQueued:
			recomputed.Queued++
		case RunRunning:
			recomputed.Running++
		}
		recomputed.CellsDone += st.CellsDone
		recomputed.CellsTotal += st.CellsTotal
		r, _ := s.Get(st.ID)
		if res, ok := s.Result(r); ok {
			recomputed.ResultRows += len(res.Cells)
		}
	}
	if sum != recomputed {
		t.Fatalf("summary diverges from store:\n stats: %+v\nstore: %+v", sum, recomputed)
	}
	if sum.ResultRows == 0 || sum.CellsDone == 0 {
		t.Fatalf("degenerate summary %+v", sum)
	}
}
