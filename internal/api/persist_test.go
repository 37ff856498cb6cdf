package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/store"
)

func openStoreT(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// copyStoreDir snapshots the persistence directory mid-flight — the
// byte-level equivalent of kill -9 while the daemon is working.
func copyStoreDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// getText fetches a path and returns the body (helper for byte-identity
// checks on results and traces).
func getText(t *testing.T, url, path string) (string, int) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

// persistTracedSpec exercises a real catalog kind with event tracing on, so
// the persisted payload carries result cells AND a JSONL trace.
const persistTracedSpec = `{"spec":{"id":"persist-traced","kind":"online",` +
	`"workload":{"n":40,"m":16,"rigid_fraction":1},` +
	`"policies":["fcfs"],"params":{"rates":[0.3]},"trace":{"events":true}},"seed":7}`

// TestRestartRecoversRuns: a service reopened on a byte-copy of the
// persistence directory (taken while a run was still executing) serves
// finished results, text renderings, traces and SSE history
// byte-identically, fails the in-flight run with a restart reason,
// keeps run IDs monotonic, and answers an identical resubmission from
// the memo cache.
func TestRestartRecoversRuns(t *testing.T) {
	dir := t.TempDir()
	_, srv := newTestService(t, Config{MaxActive: 2, MaxHistory: 8, Store: openStoreT(t, dir)})

	done, code, _ := postRun(t, srv.URL, persistTracedSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, srv.URL, done.ID, RunDone)
	wantJSON, _ := getText(t, srv.URL, "/v1/runs/"+done.ID+"/result")
	wantText, _ := getText(t, srv.URL, "/v1/runs/"+done.ID+"/result?format=text")
	wantTrace, _ := getText(t, srv.URL, "/v1/runs/"+done.ID+"/trace")
	if !strings.Contains(wantTrace, `"ev":"meta"`) {
		t.Fatalf("traced run produced no trace:\n%s", wantTrace)
	}

	inflight, _, _ := postRun(t, srv.URL, `{"spec":{"id":"g","kind":"api-gate","params":{"cells":1}}}`)
	waitState(t, srv.URL, inflight.ID, RunRunning)

	// kill -9: only the bytes already on disk survive.
	svc2, srv2 := newTestService(t, Config{MaxActive: 2, MaxHistory: 8,
		Store: openStoreT(t, copyStoreDir(t, dir))})

	gotJSON, code := getText(t, srv2.URL, "/v1/runs/"+done.ID+"/result")
	if code != http.StatusOK || gotJSON != wantJSON {
		t.Fatalf("recovered result JSON diverges (status %d)\nwant:\n%s\ngot:\n%s", code, wantJSON, gotJSON)
	}
	gotText, _ := getText(t, srv2.URL, "/v1/runs/"+done.ID+"/result?format=text")
	if gotText != wantText {
		t.Fatalf("recovered text table diverges\nwant:\n%s\ngot:\n%s", wantText, gotText)
	}
	gotTrace, _ := getText(t, srv2.URL, "/v1/runs/"+done.ID+"/trace")
	if gotTrace != wantTrace {
		t.Fatalf("recovered trace diverges\nwant:\n%s\ngot:\n%s", wantTrace, gotTrace)
	}

	// SSE on a recovered terminal run replays history and closes on the
	// terminal state event.
	events, err := streamEvents(context.Background(), srv2.URL, done.ID)
	if err != nil {
		t.Fatalf("SSE on recovered run: %v", err)
	}
	last := events[len(events)-1]
	if last.Type != "state" || last.State != RunDone {
		t.Fatalf("recovered SSE history ends with %+v, want done state event", last)
	}

	// The run that was mid-flight at the crash is failed, with a reason
	// that names the restart.
	st := getStatus(t, srv2.URL, inflight.ID)
	if st.State != RunFailed || !strings.Contains(st.Error, "interrupted by daemon restart") {
		t.Fatalf("in-flight run recovered as %q (err %q), want failed/restart reason", st.State, st.Error)
	}

	// Run IDs stay monotonic across the restart: no recycled IDs.
	next, _, _ := postRun(t, srv2.URL, `{"spec":{"id":"n","kind":"api-sleep","params":{"cells":1,"us":1}}}`)
	if next.ID <= inflight.ID {
		t.Fatalf("post-restart run ID %q not after pre-crash %q", next.ID, inflight.ID)
	}

	// An identical resubmission is a memo hit rebuilt from the store:
	// immediately done, flagged cached, byte-identical result.
	hit, code, _ := postRun(t, srv2.URL, persistTracedSpec)
	if code != http.StatusAccepted || !hit.Cached || hit.State != RunDone {
		t.Fatalf("resubmission after restart: status %d cached=%v state=%q", code, hit.Cached, hit.State)
	}
	hitJSON, _ := getText(t, srv2.URL, "/v1/runs/"+hit.ID+"/result")
	if hitJSON != wantJSON {
		t.Fatalf("cached result diverges from original\nwant:\n%s\ngot:\n%s", wantJSON, hitJSON)
	}
	if sum := svc2.Summary(); sum.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", sum.CacheHits)
	}
}

// TestRecoveryKeepsRunsOfRefusedSpecs: a data directory may hold runs
// whose specs an earlier, more lenient build accepted — one that failed
// in its runner, one still queued at the crash. Recovery restores both
// as failed with their errors instead of dropping them because Validate
// now refuses their specs.
func TestRecoveryKeepsRunsOfRefusedSpecs(t *testing.T) {
	dir := t.TempDir()
	st := openStoreT(t, dir)
	created := time.Now().Add(-time.Minute)
	const bogusErr = `scenario: spec "adhoc": unknown param "bogus" for kind "faults" (known: crash_procs kill mtbfs tasks)`
	for _, rec := range []store.Record{
		{Op: "submit", Run: &store.RunRecord{ID: "r000001", Seq: 1, State: "queued", Seed: 42, Created: created,
			Spec: json.RawMessage(`{"id":"adhoc","kind":"faults","params":{"bogus":1}}`)}},
		{Op: "state", ID: "r000001", State: "running", Started: created},
		{Op: "terminal", ID: "r000001", State: "failed", Error: bogusErr, Finished: created},
		{Op: "submit", Run: &store.RunRecord{ID: "r000002", Seq: 2, State: "queued", Seed: 42, Created: created,
			Spec: json.RawMessage(`{"id":"adhoc","kind":"mrt","params":{"ms":[0]}}`)}},
	} {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc, _ := newTestService(t, Config{Store: openStoreT(t, dir)})
	want := map[string]string{"r000001": bogusErr, "r000002": "interrupted by daemon restart"}
	list := svc.List()
	if len(list) != len(want) {
		t.Fatalf("recovered %d runs %+v, want %d", len(list), list, len(want))
	}
	for _, run := range list {
		if run.State != RunFailed || run.Error != want[run.ID] {
			t.Errorf("run %s recovered as %q (err %q), want failed with %q", run.ID, run.State, run.Error, want[run.ID])
		}
	}
}

// TestMemoization: identical submissions are answered from the cache
// without re-executing cells; different seeds miss.
func TestMemoization(t *testing.T) {
	_, srv := newTestService(t, Config{MaxActive: 2, MaxHistory: 8})
	body := `{"spec":{"id":"m","kind":"api-sleep","params":{"cells":2,"us":1}},"seed":9}`

	first, _, _ := postRun(t, srv.URL, body)
	if first.Cached {
		t.Fatal("first submission claims cached")
	}
	waitState(t, srv.URL, first.ID, RunDone)
	wantJSON, _ := getText(t, srv.URL, "/v1/runs/"+first.ID+"/result")

	hit, _, _ := postRun(t, srv.URL, body)
	if !hit.Cached || hit.State != RunDone || hit.ID == first.ID {
		t.Fatalf("second submission: cached=%v state=%q id=%q (first %q)", hit.Cached, hit.State, hit.ID, first.ID)
	}
	if got, _ := getText(t, srv.URL, "/v1/runs/"+hit.ID+"/result"); got != wantJSON {
		t.Fatalf("cached result diverges\nwant:\n%s\ngot:\n%s", wantJSON, got)
	}

	miss, _, _ := postRun(t, srv.URL, `{"spec":{"id":"m","kind":"api-sleep","params":{"cells":2,"us":1}},"seed":10}`)
	if miss.Cached {
		t.Fatal("different seed served from cache")
	}
	waitState(t, srv.URL, miss.ID, RunDone)
}

func postRunKey(t *testing.T, url, key, body string) (RunStatus, int, http.Header) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/runs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st RunStatus
	_ = decodeBody(resp.Body, &st)
	return st, resp.StatusCode, resp.Header
}

func decodeBody(r io.Reader, out any) error {
	b, err := io.ReadAll(r)
	if err != nil || len(b) == 0 {
		return err
	}
	return json.Unmarshal(b, out)
}

// TestTenantAuth: submissions need a configured key (401/403), each
// tenant admits against its own quota (429 + Retry-After), reads stay
// open, and cross-tenant cancellation is refused.
func TestTenantAuth(t *testing.T) {
	ts, err := store.ParseTenants([]byte(`[
		{"name":"alpha","key":"alpha-key","max_active":1,"submit_rate":100,"burst":100},
		{"name":"beta","key":"beta-key","max_active":1,"submit_rate":100,"burst":100},
		{"name":"gamma","key":"gamma-key","max_active":4,"submit_rate":0.5,"burst":1}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	_, srv := newTestService(t, Config{MaxActive: 4, MaxHistory: 16, Tenants: ts})
	gateBody := func(id string) string {
		return `{"spec":{"id":"` + id + `","kind":"api-gate","params":{"cells":1}}}`
	}

	if _, code, hdr := postRunKey(t, srv.URL, "", gateBody("x")); code != http.StatusUnauthorized || hdr.Get("WWW-Authenticate") == "" {
		t.Fatalf("missing key: status %d, WWW-Authenticate %q", code, hdr.Get("WWW-Authenticate"))
	}
	if _, code, _ := postRunKey(t, srv.URL, "wrong", gateBody("x")); code != http.StatusForbidden {
		t.Fatalf("unknown key: status %d, want 403", code)
	}

	// Bearer form works too.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/runs", strings.NewReader(gateBody("a1")))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer alpha-key")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var aRun RunStatus
	_ = decodeBody(resp.Body, &aRun)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || aRun.Tenant != "alpha" {
		t.Fatalf("alpha submit: status %d tenant %q", resp.StatusCode, aRun.Tenant)
	}

	// Alpha is at max_active 1: its next submission is refused with a
	// Retry-After hint — while beta admits independently.
	_, code, hdr := postRunKey(t, srv.URL, "alpha-key", gateBody("a2"))
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("alpha over quota: status %d, Retry-After %q", code, hdr.Get("Retry-After"))
	}
	bRun, code, _ := postRunKey(t, srv.URL, "beta-key", gateBody("b1"))
	if code != http.StatusAccepted || bRun.Tenant != "beta" {
		t.Fatalf("beta submit while alpha throttled: status %d tenant %q", code, bRun.Tenant)
	}

	// Gamma has active slots free but a one-token bucket: the second
	// submission is rate-limited, not slot-limited.
	if _, code, _ := postRunKey(t, srv.URL, "gamma-key", `{"spec":{"id":"g1","kind":"api-sleep","params":{"cells":1,"us":1}}}`); code != http.StatusAccepted {
		t.Fatalf("gamma first submit: status %d", code)
	}
	if _, code, _ := postRunKey(t, srv.URL, "gamma-key", `{"spec":{"id":"g2","kind":"api-sleep","params":{"cells":1,"us":1}}}`); code != http.StatusTooManyRequests {
		t.Fatalf("gamma rate limit: status %d, want 429", code)
	}

	// Reads stay open: no key needed for status.
	if st := getStatus(t, srv.URL, aRun.ID); st.ID != aRun.ID {
		t.Fatalf("unauthenticated status read failed: %+v", st)
	}

	// Beta cannot cancel alpha's run; alpha can.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+aRun.ID, nil)
	req.Header.Set("X-API-Key", "beta-key")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("cross-tenant cancel: status %d, want 403", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/runs/"+aRun.ID, nil)
	req.Header.Set("X-API-Key", "alpha-key")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("own cancel: status %d, want 200", resp.StatusCode)
	}
	waitState(t, srv.URL, aRun.ID, RunCancelled)

	// With the slot released, alpha admits again.
	again, code, _ := postRunKey(t, srv.URL, "alpha-key", gateBody("a3"))
	if code != http.StatusAccepted {
		t.Fatalf("alpha after release: status %d", code)
	}
	_, _ = cancelRun(t, srv.URL, again.ID)
	_, _ = cancelRun(t, srv.URL, bRun.ID)
}

// served is everything the API says about one run: status, SSE history
// and the result in all three formats.
func served(t *testing.T, url, id string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for name, path := range map[string]string{
		"status": "", "events": "/events",
		"json": "/result", "text": "/result?format=text", "csv": "/result?format=csv",
	} {
		body, code := getText(t, url, "/v1/runs/"+id+path)
		if code != http.StatusOK {
			t.Fatalf("GET %s of run %s: status %d\n%s", name, id, code, body)
		}
		out[name] = body
	}
	return out
}

func sameServed(t *testing.T, when string, want, got map[string]string) {
	t.Helper()
	for name := range want {
		if got[name] != want[name] {
			t.Fatalf("%s: %s diverges\nwant:\n%s\ngot:\n%s", when, name, want[name], got[name])
		}
	}
}

// TestFigureResultSurvivesRestart: a figure renders through its own
// writer, not from cells, so the store keeps its text. fig2 at quick
// scale serves its golden table (less the blank line `gridctl local`
// prints after every table) before the service and the store close and
// after both reopen on the same directory.
func TestFigureResultSurvivesRestart(t *testing.T) {
	golden, err := os.ReadFile("../../testdata/golden/fig2.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.TrimSuffix(string(golden), "\n")
	dir := t.TempDir()
	st := openStoreT(t, dir)
	cfg := Config{MaxActive: 1, MaxHistory: 4, Store: st}
	svc, srv := newTestService(t, cfg)
	run, code, _ := postRun(t, srv.URL, `{"id":"fig2","quick":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitState(t, srv.URL, run.ID, RunDone)
	path := "/v1/runs/" + run.ID + "/result?format=text"
	if got, code := getText(t, srv.URL, path); code != http.StatusOK || got != want {
		t.Fatalf("fig2 before the restart (status %d):\n%s\nwant:\n%s", code, got, want)
	}
	srv.Close()
	svc.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.Store = openStoreT(t, dir)
	_, srv2 := newTestService(t, cfg)
	if got, code := getText(t, srv2.URL, path); code != http.StatusOK || got != want {
		t.Fatalf("fig2 after the restart (status %d):\n%s\nwant:\n%s", code, got, want)
	}
}

// TestCachedRunSurvivesRestart: a memo hit is persisted as a reference
// to its source run, yet comes back byte-identical — status, event
// history, result in every format — after a restart, after the source
// was evicted, and after a compaction folded the log into a snapshot. A
// cached record in the older format (its own copy of the payload, no
// source) still loads.
func TestCachedRunSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStoreT(t, dir)
	cfg := Config{MaxActive: 2, MaxHistory: 3}
	live := cfg
	live.Store = st
	_, srv := newTestService(t, live)
	restarted := func(when string, want map[string]string, id string) {
		t.Helper()
		re := cfg
		re.Store = openStoreT(t, copyStoreDir(t, dir))
		_, srv2 := newTestService(t, re)
		sameServed(t, when, want, served(t, srv2.URL, id))
	}

	src, _, _ := postRun(t, srv.URL, persistTracedSpec)
	waitState(t, srv.URL, src.ID, RunDone)
	hit, code, _ := postRun(t, srv.URL, persistTracedSpec)
	if code != http.StatusAccepted || !hit.Cached {
		t.Fatalf("resubmission: status %d cached=%v", code, hit.Cached)
	}
	want := served(t, srv.URL, hit.ID)
	if !strings.Contains(want["events"], `"state":"done"`) || strings.Contains(want["events"], `"type":"cell"`) {
		t.Fatalf("a memo hit's history is its one closing event, got:\n%s", want["events"])
	}
	for _, rec := range st.Runs() {
		if rec.ID == hit.ID && rec.Source != src.ID {
			t.Fatalf("cached record names source %q, want %q", rec.Source, src.ID)
		}
	}
	restarted("after a restart", want, hit.ID)

	// Two more hits fill the history; the second evicts the source, in
	// the batch of its own submit record, which names that very source.
	postRun(t, srv.URL, persistTracedSpec)
	last, _, _ := postRun(t, srv.URL, persistTracedSpec)
	if !last.Cached {
		t.Fatal("hit that evicts its source was not served from the cache")
	}
	if _, code := getText(t, srv.URL, "/v1/runs/"+src.ID); code != http.StatusNotFound {
		t.Fatalf("source run still stored (status %d); the test needs it evicted", code)
	}
	wantLast := served(t, srv.URL, last.ID)
	restarted("after the source was evicted", want, hit.ID)
	restarted("hit whose batch evicted its own source", wantLast, last.ID)

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	restarted("after a compaction", want, hit.ID)

	// The format written before hits went by reference: the record
	// carries the hit's own payload inline and names no source.
	old := openStoreT(t, t.TempDir())
	var payload terminalPayload
	for _, rec := range st.Runs() {
		if rec.ID != hit.ID {
			continue
		}
		if err := json.Unmarshal(rec.Terminal, &payload); err != nil {
			t.Fatal(err)
		}
		payload.Events = cachedHistory()
		inline := *rec
		inline.Source = ""
		var err error
		if inline.Terminal, err = json.Marshal(&payload); err != nil {
			t.Fatal(err)
		}
		if err := old.Append(store.Record{Op: "submit", Run: &inline}); err != nil {
			t.Fatal(err)
		}
	}
	re := cfg
	re.Store = old
	_, srvOld := newTestService(t, re)
	sameServed(t, "record in the inline format", want, served(t, srvOld.URL, hit.ID))
}

// TestPayloadWithTimingsRecovers: the terminal payload no longer
// carries a "timings" list, since a status's cells are read from the
// run's cell events. A payload written in the earlier format, with the
// list, still loads, and both formats serve the status the live run
// served, cells included.
func TestPayloadWithTimingsRecovers(t *testing.T) {
	dir := t.TempDir()
	st := openStoreT(t, dir)
	_, srv := newTestService(t, Config{Store: st})
	run, _, _ := postRun(t, srv.URL, `{"spec":{"id":"t","kind":"api-sleep","params":{"cells":3,"us":1}}}`)
	waitState(t, srv.URL, run.ID, RunDone)
	want, _ := getText(t, srv.URL, "/v1/runs/"+run.ID)
	var live RunStatus
	if err := json.Unmarshal([]byte(want), &live); err != nil {
		t.Fatal(err)
	}
	if len(live.Cells) != 3 {
		t.Fatalf("live status lists %d cells, want 3:\n%s", len(live.Cells), want)
	}

	oldDir := t.TempDir()
	old := openStoreT(t, oldDir)
	for _, rec := range st.Runs() {
		var payload map[string]json.RawMessage
		if err := json.Unmarshal(rec.Terminal, &payload); err != nil {
			t.Fatal(err)
		}
		if _, ok := payload["timings"]; ok {
			t.Fatalf("terminal payload still writes timings: %s", rec.Terminal)
		}
		timings, err := json.Marshal(live.Cells)
		if err != nil {
			t.Fatal(err)
		}
		payload["timings"] = timings
		withTimings := *rec
		if withTimings.Terminal, err = json.Marshal(payload); err != nil {
			t.Fatal(err)
		}
		if err := old.Append(store.Record{Op: "submit", Run: &withTimings}); err != nil {
			t.Fatal(err)
		}
	}
	recovered := func(st *store.Store) string {
		t.Helper()
		_, srv2 := newTestService(t, Config{Store: st})
		body, _ := getText(t, srv2.URL, "/v1/runs/"+run.ID)
		return body
	}
	if got := recovered(openStoreT(t, copyStoreDir(t, dir))); got != want {
		t.Fatalf("recovered payload serves\n%s\nwant the live\n%s", got, want)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if got := recovered(openStoreT(t, oldDir)); got != want {
		t.Fatalf("payload with timings serves\n%s\nwant the live\n%s", got, want)
	}
}

// TestTornBatchRecovers: a crash that tears the batch "submit, evict"
// between its frames leaves one run too many; recovery evicts it again,
// persists that, and the next boot agrees.
func TestTornBatchRecovers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxActive: 1, MaxHistory: 3}
	live := cfg
	live.Store = openStoreT(t, dir)
	_, srv := newTestService(t, live)
	body := `{"spec":{"id":"torn","kind":"api-sleep","params":{"cells":1,"us":1}},"seed":5}`
	first, _, _ := postRun(t, srv.URL, body)
	waitState(t, srv.URL, first.ID, RunDone)
	var lastID string
	for i := 0; i < 3; i++ { // the third hit overflows the history
		hit, _, _ := postRun(t, srv.URL, body)
		if !hit.Cached {
			t.Fatalf("submission %d not served from the cache", i)
		}
		lastID = hit.ID
	}

	// The log ends with that batch; cutting into its last frame loses the
	// eviction and keeps the submit.
	crashed := copyStoreDir(t, dir)
	wal := filepath.Join(crashed, "wal-00000000.log")
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	for boot := 1; boot <= 2; boot++ {
		re := cfg
		re.Store = openStoreT(t, crashed)
		if n := len(re.Store.Runs()); boot == 1 && n != 4 {
			t.Fatalf("torn log holds %d runs, want 4 (the eviction lost, its submit kept)", n)
		}
		svc, srv2 := newTestService(t, re)
		list := svc.List()
		if len(list) != 3 || list[2].ID != lastID || list[0].ID == first.ID {
			t.Fatalf("boot %d: recovered %d runs %+v, want the 3 newest", boot, len(list), list)
		}
		if n := len(re.Store.Runs()); n != 3 {
			t.Fatalf("boot %d: store holds %d runs after recovery, want 3", boot, n)
		}
		if sum := svc.Summary(); sum.Evicted != 1 {
			t.Fatalf("boot %d: %d evictions counted, want 1", boot, sum.Evicted)
		}
		if _, code := getText(t, srv2.URL, "/v1/runs/"+lastID+"/result?format=text"); code != http.StatusOK {
			t.Fatalf("boot %d: result of the newest hit: status %d", boot, code)
		}
		srv2.Close()
		svc.Close()
		re.Store.Close()
	}
}

// TestMemoCollisionIsAMiss: the 64-bit memo key only nominates a source
// run. An entry sitting under another submission's key — a collision,
// here forged outright, between two tenants — is not served: the
// submission executes and gets its own result, and the entry stays.
func TestMemoCollisionIsAMiss(t *testing.T) {
	ts, err := store.ParseTenants([]byte(`[
		{"name":"alpha","key":"alpha-key","max_active":2,"submit_rate":100,"burst":100},
		{"name":"beta","key":"beta-key","max_active":2,"submit_rate":100,"burst":100}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	s, srv := newTestService(t, Config{MaxActive: 2, Tenants: ts})
	bodyA := `{"spec":{"id":"alphas","kind":"api-sleep","params":{"cells":2,"us":1}},"seed":1}`
	bodyB := `{"spec":{"id":"betas","kind":"api-sleep","params":{"cells":5,"us":1}},"seed":1}`
	a, code, _ := postRunKey(t, srv.URL, "alpha-key", bodyA)
	if code != http.StatusAccepted {
		t.Fatalf("alpha submit: %d", code)
	}
	waitState(t, srv.URL, a.ID, RunDone)
	textA, _ := getText(t, srv.URL, "/v1/runs/"+a.ID+"/result?format=text")

	// The key the service will compute for beta's submission.
	var req scenario.HTTPRequest
	if err := json.Unmarshal([]byte(bodyB), &req); err != nil {
		t.Fatal(err)
	}
	spec, herr := s.resolveSpec(&req)
	if herr != nil {
		t.Fatal(herr.msg)
	}
	opt := req.Options(spec)
	specJSON, _ := json.Marshal(spec)
	keyB := store.MemoKey(specJSON, opt.Seed, opt.Scale.JobFactor, scenario.CatalogHash())
	s.mu.Lock()
	forged := s.runs[a.ID]
	s.memo[keyB] = forged
	s.mu.Unlock()

	b, code, _ := postRunKey(t, srv.URL, "beta-key", bodyB)
	if code != http.StatusAccepted || b.Cached {
		t.Fatalf("beta's submission under a colliding key: status %d cached=%v, want an executing run", code, b.Cached)
	}
	waitState(t, srv.URL, b.ID, RunDone)
	textB, _ := getText(t, srv.URL, "/v1/runs/"+b.ID+"/result?format=text")
	if textB == textA || strings.Count(textB, "\n") <= strings.Count(textA, "\n") {
		t.Fatalf("beta was served alpha's result:\n%s", textB)
	}
	s.mu.Lock()
	kept := s.memo[keyB] == forged
	s.mu.Unlock()
	if !kept {
		t.Fatal("a miss on a colliding key replaced the existing entry")
	}
	// The identity check does not cost real hits: same spec, seed and job
	// factor from the other tenant is still served from the cache.
	if hit, _, _ := postRunKey(t, srv.URL, "beta-key", bodyA); !hit.Cached || hit.Tenant != "beta" {
		t.Fatalf("identical resubmission across tenants: cached=%v tenant=%q", hit.Cached, hit.Tenant)
	}
}
