package gridservice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	_ "repro/internal/experiments" // register scenario kinds + catalog
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// serve starts a broker over topo behind an httptest server.
func serve(t *testing.T, topo Topology) (*Broker, *httptest.Server) {
	t.Helper()
	b, err := NewBroker(topo)
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	runs := api.NewRunService(api.Config{})
	srv := httptest.NewServer(b.Handler(runs))
	t.Cleanup(func() {
		srv.Close()
		runs.Close()
		b.Stop()
	})
	return b, srv
}

func startTestBroker(t *testing.T) (*Broker, *httptest.Server) {
	t.Helper()
	return serve(t, fleetTopo(4, 16, "centralized"))
}

// oneCluster is the topology gridd builds from its flags when it runs
// without -topology (free-running unless dilation is set).
func oneCluster(m int, policy string, dilation float64) Topology {
	return Topology{Dilation: dilation, Clusters: []ClusterSpec{{M: m, Policy: policy}}}
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getText(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

// recordRoutes collects the patterns a handler registers.
type recordRoutes []string

func (r *recordRoutes) HandleFunc(pattern string, _ func(http.ResponseWriter, *http.Request)) {
	*r = append(*r, pattern)
}

// TestRouteTableIsV1Only: every pattern the daemon registers — its own,
// the run API's and the fleet lease protocol's — is under /v1/, and the
// unversioned routes of earlier releases are gone.
func TestRouteTableIsV1Only(t *testing.T) {
	b, srv := serve(t, oneCluster(8, "easy", 0))
	co := fleet.NewCoordinator(fleet.Config{})
	defer co.Close()
	runs := api.NewRunService(api.Config{Fleet: co})
	defer runs.Close()
	var routes recordRoutes
	b.routes(&routes, runs)
	if len(routes) < 20 {
		t.Fatalf("recorded only %d routes: %v", len(routes), routes)
	}
	for _, p := range routes {
		if _, path, _ := strings.Cut(p, " "); !strings.HasPrefix(path, "/v1/") {
			t.Errorf("route %q is not under /v1/", p)
		}
	}
	for _, req := range []struct{ method, path string }{
		{"GET", "/stats"}, {"GET", "/jobs/0"}, {"POST", "/scenarios"}, {"POST", "/v1/scenarios"},
	} {
		r, err := http.NewRequest(req.method, srv.URL+req.path, strings.NewReader(`{"id":"mrt","quick":true}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s answered %d, want 404", req.method, req.path, resp.StatusCode)
		}
	}
}

func TestBrokerHTTPJobLifecycle(t *testing.T) {
	_, srv := startTestBroker(t)

	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{"seq_time": 20, "min_procs": 2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == "" {
		t.Fatalf("no cluster in %s", body)
	}

	// Pinned submission lands on the named cluster.
	resp, body = postJSON(t, srv.URL+"/v1/jobs", `{"seq_time": 5, "min_procs": 1, "cluster": "c2"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pinned submit: %d %s", resp.StatusCode, body)
	}
	var pinned JobStatus
	if err := json.Unmarshal(body, &pinned); err != nil {
		t.Fatal(err)
	}
	if pinned.Cluster != "c2" {
		t.Fatalf("pinned to %q", pinned.Cluster)
	}

	var got JobStatus
	if code := getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", srv.URL, pinned.ID), &got); code != http.StatusOK {
		t.Fatalf("job lookup: %d", code)
	}
	if got.Cluster != "c2" || got.ID != pinned.ID {
		t.Fatalf("lookup %+v", got)
	}

	if code := getJSON(t, srv.URL+"/v1/jobs/99999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/abc", nil); code != http.StatusBadRequest {
		t.Fatalf("bad job id: %d", code)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/jobs", `{"seq_time": -1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/jobs", `{"seq_time": 1, "cluster": "nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown cluster: %d", resp.StatusCode)
	}
}

// TestHTTPSubmitQueryLifecycle: a flag-configured (one-cluster) daemon
// accepts a job, reports it waiting, then done once the free-running
// clock has caught up.
func TestHTTPSubmitQueryLifecycle(t *testing.T) {
	_, srv := serve(t, oneCluster(16, "easy", 0))

	resp, body := postJSON(t, srv.URL+"/v1/jobs", `{"name": "web", "seq_time": 50, "min_procs": 2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != 0 || st.State != "waiting" || st.Cluster != "c0" {
		t.Fatalf("submit response %+v", st)
	}

	// The job completes as soon as the engine's mailbox turns; poll
	// briefly since a query can land before the events run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got JobStatus
		if code := getJSON(t, srv.URL+"/v1/jobs/0", &got); code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/0 status %d", code)
		}
		if got.State == "done" {
			if got.Procs != 2 || got.End <= 0 || got.Cluster != "c0" {
				t.Fatalf("final status %+v", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job state %q, want done", got.State)
		}
		time.Sleep(time.Millisecond)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/99", nil); code != http.StatusNotFound {
		t.Fatalf("GET /v1/jobs/99 status %d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/zzz", nil); code != http.StatusBadRequest {
		t.Fatalf("GET /v1/jobs/zzz status %d, want 400", code)
	}
}

// TestHTTPBadSpec: malformed JSON and a job wider than the cluster are
// 400s.
func TestHTTPBadSpec(t *testing.T) {
	_, srv := serve(t, oneCluster(4, "fcfs", 0))
	if resp, _ := postJSON(t, srv.URL+"/v1/jobs", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/jobs", `{"seq_time": 5, "min_procs": 100}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("too-wide job: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPUnknownFieldsRejected: a job or campaign spec with a field the
// broker does not know (a misspelling such as "min_proc") is a 400 that
// names the field, and nothing is created — it is not run with defaults.
func TestHTTPUnknownFieldsRejected(t *testing.T) {
	_, srv := startTestBroker(t)
	for _, c := range []struct{ path, body, field string }{
		{"/v1/jobs", `{"seq_time": 5, "min_proc": 2}`, "min_proc"},
		{"/v1/campaigns", `{"tasks": 4, "run_time": 1, "runtime": 2}`, "runtime"},
	} {
		resp, body := postJSON(t, srv.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), c.field) {
			t.Fatalf("POST %s %s: %d %s, want a 400 naming %q", c.path, c.body, resp.StatusCode, body, c.field)
		}
	}
	var st FleetStats
	if code := getJSON(t, srv.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	var camps []Campaign
	if code := getJSON(t, srv.URL+"/v1/campaigns", &camps); code != http.StatusOK {
		t.Fatalf("campaigns: %d", code)
	}
	if st.Fleet.Submitted != 0 || len(camps) != 0 {
		t.Fatalf("rejected specs created %d jobs and %d campaigns", st.Fleet.Submitted, len(camps))
	}
}

// TestHTTPStatsAndQueue: /v1/stats reports the cluster's identity and
// counts; /v1/queue lists running jobs and then waiting ones — queued in
// scheduling order, then not-yet-arrived in ID order — as JSON arrays
// that are empty, never null, when nothing waits.
func TestHTTPStatsAndQueue(t *testing.T) {
	// Paced at one virtual second per wall second, so the 10 000-second
	// jobs stay in flight for the whole test.
	_, srv := serve(t, oneCluster(2, "fcfs", 1))

	body, _ := getText(t, srv.URL+"/v1/queue")
	if !strings.Contains(body, `"waiting":[]`) || !strings.Contains(body, `"running":[]`) {
		t.Fatalf("empty queue must list empty arrays: %s", body)
	}
	for _, spec := range []string{
		`{"seq_time": 20000, "min_procs": 2}`,
		`{"seq_time": 20000, "min_procs": 2}`,
		`{"seq_time": 10, "min_procs": 1, "release": 3600}`,
	} {
		if resp, body := postJSON(t, srv.URL+"/v1/jobs", spec); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %s", resp.StatusCode, body)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	var q []ClusterQueue
	for {
		q = nil
		if code := getJSON(t, srv.URL+"/v1/queue", &q); code != http.StatusOK {
			t.Fatalf("queue: %d", code)
		}
		if len(q) != 1 || q[0].Name != "c0" {
			t.Fatalf("queue per cluster: %+v", q)
		}
		if len(q[0].Running) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached 1 running: %+v", q)
		}
		time.Sleep(time.Millisecond)
	}
	if q[0].Running[0].ID != 0 || len(q[0].Waiting) != 2 || q[0].Waiting[0].ID != 1 || q[0].Waiting[1].ID != 2 {
		t.Fatalf("queue order: %+v", q[0])
	}

	var st FleetStats
	if code := getJSON(t, srv.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Fleet.Submitted != 3 || len(st.Clusters) != 1 {
		t.Fatalf("fleet stats %+v", st.Fleet)
	}
	c := st.Clusters[0]
	if c.Name != "c0" || c.Stats.Policy != "fcfs" || c.Stats.M != 2 || c.Stats.Submitted != 3 || c.Stats.Waiting != 2 {
		t.Fatalf("cluster stats %+v", c)
	}
}

// TestHTTPMetricsExposition: every series the single-cluster exporter
// of earlier releases wrote has a counterpart on /v1/metrics, labelled
// with the cluster where it is per cluster.
func TestHTTPMetricsExposition(t *testing.T) {
	_, srv := serve(t, oneCluster(8, "easy", 0))
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", `{"seq_time": 10, "min_procs": 1}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	text, resp := getText(t, srv.URL+"/v1/metrics")
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics content type %q", resp.Header.Get("Content-Type"))
	}
	const c0 = `{cluster="c0"}`
	for old, now := range map[string]string{
		"gridd_jobs_submitted_total":            "gridd_cluster_jobs_tracked" + c0 + " 1",
		"gridd_jobs_completed_total":            "gridd_cluster_jobs_completed_total" + c0,
		"gridd_jobs_waiting":                    "gridd_cluster_jobs_waiting" + c0,
		"gridd_jobs_running":                    "gridd_cluster_jobs_running" + c0,
		"gridd_processors":                      "gridd_cluster_processors" + c0 + " 8",
		"gridd_virtual_time_seconds":            "# TYPE gridd_cluster_virtual_time_seconds gauge\n",
		"gridd_uptime_seconds":                  "gridd_fleet_uptime_seconds ",
		"gridd_time_dilation":                   "gridd_cluster_time_dilation" + c0 + " 0",
		"gridd_makespan_seconds":                "gridd_cluster_makespan_seconds" + c0,
		"gridd_mean_flow_seconds":               "gridd_cluster_mean_flow_seconds" + c0,
		"gridd_max_flow_seconds":                "gridd_cluster_max_flow_seconds" + c0,
		"gridd_mean_stretch":                    "gridd_cluster_mean_stretch" + c0,
		"gridd_max_stretch":                     "gridd_cluster_max_stretch" + c0,
		"gridd_utilization_ratio":               "gridd_cluster_utilization_ratio" + c0,
		"gridd_best_effort_completed_total":     "gridd_cluster_best_effort_completed_total" + c0,
		"gridd_best_effort_killed_total":        "gridd_cluster_best_effort_killed_total" + c0,
		"gridd_best_effort_redistributed_total": "gridd_cluster_best_effort_redistributed_total" + c0,
		"gridd_fault_crashes_total":             "gridd_cluster_fault_crashes_total" + c0,
		"gridd_fault_repairs_total":             "gridd_cluster_fault_repairs_total" + c0,
		"gridd_fault_requeues_total":            "gridd_cluster_fault_requeues_total" + c0,
		"gridd_fault_lost_work_seconds":         "gridd_cluster_fault_lost_work_seconds" + c0,
		"gridd_fault_down_proc_seconds":         "gridd_cluster_fault_down_proc_seconds" + c0,
		"gridd_drained":                         "gridd_cluster_drained" + c0 + " 0",
		"gridd_runs_stored":                     "gridd_runs_stored ",
		"gridd_runs_active":                     "gridd_runs_active ",
		"gridd_runs_evicted_total":              "gridd_runs_evicted_total ",
		"gridd_run_cache_hits_total":            "gridd_run_cache_hits_total ",
	} {
		if !strings.Contains(text, now) {
			t.Errorf("old series %s: %q missing from /v1/metrics", old, now)
		}
	}
	if t.Failed() {
		t.Log(text)
	}
}

// TestHTTPPolicies: the local catalog lists the registry's policies.
func TestHTTPPolicies(t *testing.T) {
	_, srv := serve(t, oneCluster(8, "easy", 0))
	var cat policyCatalog
	if code := getJSON(t, srv.URL+"/v1/policies", &cat); code != http.StatusOK {
		t.Fatalf("policies: %d", code)
	}
	names := map[string]bool{}
	for _, p := range cat.Local {
		names[p.Name] = true
	}
	for _, want := range []string{"easy", "fcfs", "conservative", "mrt"} {
		if !names[want] {
			t.Fatalf("policy catalog missing %q: %v", want, names)
		}
	}
}

// tableText renders a direct run of spec the way a run's text result
// does.
func tableText(t *testing.T, spec *scenario.Spec, opts scenario.RunOptions) string {
	t.Helper()
	want, err := scenario.Run(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := want.Table.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestHTTPScenarios: a flag-configured daemon's POST /v1/runs returns
// the table the CLI produces for the same spec, seed and scale — for a
// built-in id and for an inline spec.
func TestHTTPScenarios(t *testing.T) {
	_, srv := serve(t, oneCluster(8, "easy", 0))

	// 1) A built-in catalog scenario by id.
	st := waitRun(t, srv.URL, `{"id":"mrt","seed":42,"quick":true}`)
	if st.Kind != "mrt" || st.Seed != 42 {
		t.Fatalf("metadata: %+v", st)
	}
	got, _ := getText(t, srv.URL+"/v1/runs/"+st.ID+"/result?format=text")
	spec, _ := scenario.Lookup("mrt")
	if want := tableText(t, spec, scenario.RunOptions{
		Seed: 42, SeedExplicit: true, Scale: scenario.Scale{JobFactor: 10},
	}); got != want {
		t.Fatalf("HTTP table differs from engine:\n got %q\nwant %q", got, want)
	}

	// 2) An inline spec (the generic offline kind).
	seed := uint64(42)
	inline := &scenario.Spec{ID: "inline-sweep", Kind: "offline",
		Workload: &scenario.Workload{N: 40, M: 16, Weighted: true},
		Policies: []string{"mrt", "ffdh"},
		Metrics:  []string{"cmax_ratio", "util"}}
	body, err := json.Marshal(scenario.HTTPRequest{Spec: inline, Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitRun(t, srv.URL, string(body))
	got2, _ := getText(t, srv.URL+"/v1/runs/"+st2.ID+"/result?format=text")
	if want2 := tableText(t, inline, scenario.RunOptions{Seed: 42, SeedExplicit: true}); got2 != want2 {
		t.Fatalf("inline spec differs:\n got %q\nwant %q", got2, want2)
	}
}

// TestHTTPScenariosErrors: a flag-configured daemon rejects bad run
// requests synchronously with the same status codes.
func TestHTTPScenariosErrors(t *testing.T) {
	_, srv := serve(t, oneCluster(8, "easy", 0))
	for body, want := range map[string]int{
		`{`:  http.StatusBadRequest,
		`{}`: http.StatusBadRequest,
		`{"id":"mrt","spec":{"id":"x","kind":"mrt"}}`: http.StatusBadRequest,
		`{"id":"no-such-scenario"}`:                   http.StatusNotFound,
		`{"spec":{"id":"x","kind":"no-such-kind"}}`:   http.StatusBadRequest,
		`{"id":"mrt","bogus":true}`:                   http.StatusBadRequest,
	} {
		if resp, _ := postJSON(t, srv.URL+"/v1/runs", body); resp.StatusCode != want {
			t.Errorf("POST /v1/runs %s: %d, want %d", body, resp.StatusCode, want)
		}
	}
}

func TestBrokerHTTPCampaignAndStats(t *testing.T) {
	_, srv := startTestBroker(t)

	resp, body := postJSON(t, srv.URL+"/v1/campaigns", `{"name": "sweep", "tasks": 48, "run_time": 2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("campaign: %d %s", resp.StatusCode, body)
	}
	var camp Campaign
	if err := json.Unmarshal(body, &camp); err != nil {
		t.Fatal(err)
	}
	if camp.Tasks != 48 || camp.Name != "sweep" {
		t.Fatalf("campaign %+v", camp)
	}

	// Free-running fleet: the fan-out completes within a few ticks.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var c Campaign
		if code := getJSON(t, fmt.Sprintf("%s/v1/campaigns/%d", srv.URL, camp.ID), &c); code != http.StatusOK {
			t.Fatalf("campaign status: %d", code)
		}
		if c.Done {
			if c.Completed != 48 {
				t.Fatalf("done with %d of 48", c.Completed)
			}
			sum := 0
			for _, n := range c.PerCluster {
				sum += n
			}
			if sum != 48 {
				t.Fatalf("per-cluster sums to %d", sum)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never completed: %+v", c)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var list []Campaign
	if code := getJSON(t, srv.URL+"/v1/campaigns", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("campaign list: %d %v", code, list)
	}
	if code := getJSON(t, srv.URL+"/v1/campaigns/99", nil); code != http.StatusNotFound {
		t.Fatalf("unknown campaign: %d", code)
	}
	if resp, _ := postJSON(t, srv.URL+"/v1/campaigns", `{"tasks": 0, "run_time": 1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty campaign: %d", resp.StatusCode)
	}

	var st FleetStats
	if code := getJSON(t, srv.URL+"/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Fleet.Clusters != 4 || st.Fleet.Procs != 64 {
		t.Fatalf("fleet %+v", st.Fleet)
	}
	if st.Fleet.BestEffort.Completed != 48 {
		t.Fatalf("fleet best-effort %+v", st.Fleet.BestEffort)
	}
	if len(st.Clusters) != 4 || st.Clusters[2].Name != "c2" {
		t.Fatalf("per-cluster stats %+v", st.Clusters)
	}
	if st.GridPolicy != "centralized" {
		t.Fatalf("grid policy %q", st.GridPolicy)
	}
}

func TestBrokerHTTPMetricsAndCatalogs(t *testing.T) {
	_, srv := startTestBroker(t)

	text, _ := getText(t, srv.URL+"/v1/metrics")
	for _, want := range []string{
		"gridd_fleet_clusters 4",
		"gridd_fleet_processors 64",
		`gridd_cluster_jobs_completed_total{cluster="c0"}`,
		`gridd_cluster_processors{cluster="c3"} 16`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	var cat policyCatalog
	if code := getJSON(t, srv.URL+"/v1/policies", &cat); code != http.StatusOK {
		t.Fatalf("policies: %d", code)
	}
	if len(cat.Local) == 0 || len(cat.Grid) < 4 {
		t.Fatalf("catalog %d local, %d grid", len(cat.Local), len(cat.Grid))
	}

	var topo Topology
	if code := getJSON(t, srv.URL+"/v1/topology", &topo); code != http.StatusOK {
		t.Fatalf("topology: %d", code)
	}
	if len(topo.Clusters) != 4 || topo.GridPolicy != "centralized" {
		t.Fatalf("topology %+v", topo)
	}
}

// TestMetricsLabelEscaping: a cluster name holding a tab, a quote, a
// backslash and a newline is written as the text format escapes it, so
// every line of the page still parses.
func TestMetricsLabelEscaping(t *testing.T) {
	_, srv := serve(t, Topology{Clusters: []ClusterSpec{{Name: "a\tb\"c\\d\ne", M: 4}}})
	text, _ := getText(t, srv.URL+"/v1/metrics")
	if want := `gridd_cluster_processors{cluster="a` + "\t" + `b\"c\\d\ne"} 4`; !strings.Contains(text, want) {
		t.Fatalf("metrics missing %q:\n%s", want, text)
	}
	// A sample line: a name, optional labels whose values use only the
	// three escapes \\ \" \n, and a value.
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
		`(\{[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\[\\"n])*"` +
		`(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\[\\"n])*")*\})? \S+$`)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !sample.MatchString(line) {
			t.Fatalf("line does not parse as the text format: %q", line)
		}
	}
}

// waitRun submits a run request and waits until it is done.
func waitRun(t *testing.T, url, body string) api.RunStatus {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/runs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var st api.RunStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, url+"/v1/runs/"+st.ID, &st); code != http.StatusOK {
			t.Fatalf("run status: %d", code)
		}
		if st.State.Terminal() {
			if st.State != api.RunDone {
				t.Fatalf("run ended %q: %s", st.State, st.Error)
			}
			return st
		}
		if time.Now().After(deadline) {
			t.Fatal("run never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBrokerScenariosEndpoint: the broker serves scenario runs, and a
// run's text result is the CLI's table.
func TestBrokerScenariosEndpoint(t *testing.T) {
	_, srv := startTestBroker(t)
	st := waitRun(t, srv.URL, `{"id":"treedlt","quick":true}`)
	got, _ := getText(t, srv.URL+"/v1/runs/"+st.ID+"/result?format=text")
	spec, _ := scenario.Lookup("treedlt")
	want, err := scenario.Run(spec, scenario.RunOptions{Seed: 42, Scale: scenario.Scale{JobFactor: 10}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := want.Table.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got != buf.String() {
		t.Fatalf("broker table differs from engine:\n got %q\nwant %q", got, buf.String())
	}
}

// TestBrokerStatsRunsSingleSource: the broker's fleet-wide /v1/stats
// runs section must equal an aggregation recomputed from the /v1/runs
// listing — both read the same run store, so any divergence is a bug.
func TestBrokerStatsRunsSingleSource(t *testing.T) {
	_, srv := startTestBroker(t)
	waitRun(t, srv.URL, `{"id":"treedlt","quick":true}`)
	waitRun(t, srv.URL, `{"id":"mrt","quick":true}`)

	var fleet FleetStats
	if code := getJSON(t, srv.URL+"/v1/stats", &fleet); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if fleet.Runs == nil {
		t.Fatal("stats has no runs section")
	}
	var list []api.RunStatus
	if code := getJSON(t, srv.URL+"/v1/runs", &list); code != http.StatusOK {
		t.Fatalf("runs list: %d", code)
	}
	recomputed := api.RunsSummary{Evicted: fleet.Runs.Evicted}
	for _, st := range list {
		recomputed.Total++
		switch st.State {
		case api.RunDone:
			recomputed.Done++
			recomputed.ResultRows += st.Rows
		case api.RunFailed:
			recomputed.Failed++
		case api.RunCancelled:
			recomputed.Cancelled++
		case api.RunQueued:
			recomputed.Queued++
		case api.RunRunning:
			recomputed.Running++
		}
		recomputed.CellsDone += st.CellsDone
		recomputed.CellsTotal += st.CellsTotal
	}
	if *fleet.Runs != recomputed {
		t.Fatalf("/v1/stats runs diverges from /v1/runs:\nstats: %+v\n  v1: %+v", *fleet.Runs, recomputed)
	}
	if recomputed.Done != 2 || recomputed.ResultRows == 0 {
		t.Fatalf("unexpected aggregation %+v", recomputed)
	}
}
