// HTTP layer of the broker: the gridd daemon's whole JSON API. /v1/stats
// and /v1/queue report the fleet cluster by cluster, and /v1/metrics
// labels every per-cluster series with {cluster="<name>"}.
package gridservice

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/registry"
)

// Handler returns the gridd HTTP API, every route under /v1; runs
// mounts the shared run-lifecycle API (POST /v1/runs, status, SSE
// events, result, trace, cancel, version):
//
//	POST /v1/jobs            submit a JobSpec (optional "cluster" pin), 202
//	GET  /v1/jobs/{id}       status of one job (includes its cluster)
//	GET  /v1/queue           waiting + running jobs, per cluster
//	POST /v1/campaigns       submit a CampaignSpec, returns the Campaign (202)
//	GET  /v1/campaigns       all campaigns
//	GET  /v1/campaigns/{id}  one campaign
//	GET  /v1/stats           fleet-wide + per-cluster statistics + runs summary
//	GET  /v1/metrics         Prometheus text, per-cluster labels
//	GET  /v1/policies        local policy catalog + grid policy catalog
//	GET  /v1/topology        the filled fleet configuration
func (b *Broker) Handler(runs *api.RunService) http.Handler {
	mux := http.NewServeMux()
	b.routes(mux, runs)
	return api.Wrap(mux, runs.Config().Log)
}

// routes registers the whole API on mux.
func (b *Broker) routes(mux api.Router, runs *api.RunService) {
	mux.HandleFunc("POST /v1/jobs", b.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", b.handleJob)
	mux.HandleFunc("GET /v1/queue", b.handleQueue)
	mux.HandleFunc("POST /v1/campaigns", b.handleSubmitCampaign)
	mux.HandleFunc("GET /v1/campaigns", b.handleCampaigns)
	mux.HandleFunc("GET /v1/campaigns/{id}", b.handleCampaign)
	mux.HandleFunc("GET /v1/stats", b.statsHandler(runs))
	mux.HandleFunc("GET /v1/metrics", b.metricsHandler(runs))
	mux.HandleFunc("GET /v1/policies", handlePolicies)
	mux.HandleFunc("GET /v1/topology", b.handleTopology)
	runs.Mount(mux)
}

func (b *Broker) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !api.DecodeBody(w, r, "job spec", &spec) {
		return
	}
	st, err := b.Submit(spec)
	switch {
	case errors.Is(err, cluster.ErrDrained) || errors.Is(err, ErrStopped):
		api.WriteError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		api.WriteError(w, http.StatusBadRequest, err.Error())
	default:
		api.WriteJSON(w, http.StatusAccepted, st)
	}
}

func (b *Broker) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "job id must be an integer")
		return
	}
	st, ok, err := b.Job(id)
	if err != nil {
		api.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if !ok {
		api.WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown job %d", id))
		return
	}
	api.WriteJSON(w, http.StatusOK, st)
}

func (b *Broker) handleQueue(w http.ResponseWriter, r *http.Request) {
	q, err := b.Queue()
	if err != nil {
		api.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	api.WriteJSON(w, http.StatusOK, q)
}

func (b *Broker) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	var spec CampaignSpec
	if !api.DecodeBody(w, r, "campaign spec", &spec) {
		return
	}
	c, err := b.SubmitCampaign(spec)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	api.WriteJSON(w, http.StatusAccepted, c)
}

func (b *Broker) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, b.Campaigns())
}

func (b *Broker) handleCampaign(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, "campaign id must be an integer")
		return
	}
	c, ok := b.CampaignStatus(id)
	if !ok {
		api.WriteError(w, http.StatusNotFound, fmt.Sprintf("unknown campaign %d", id))
		return
	}
	api.WriteJSON(w, http.StatusOK, c)
}

// statsHandler serves /v1/stats: fleet statistics plus the scenario runs
// summary, read from the same run store the /v1/runs endpoints serve
// (single source of truth for run state).
func (b *Broker) statsHandler(runs *api.RunService) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st, err := b.Stats()
		if err != nil {
			api.WriteError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		sum := runs.Summary()
		st.Runs = &sum
		api.WriteJSON(w, http.StatusOK, st)
	}
}

// clusterSeries are the per-cluster series of /v1/metrics, each written
// once per cluster with a {cluster="name"} label.
var clusterSeries = []struct {
	name, help, typ string
	get             func(s Stats) float64
}{
	{"gridd_cluster_processors", "Cluster width.", "gauge",
		func(s Stats) float64 { return float64(s.M) }},
	// Gauge, not counter: migrations move tracked jobs between clusters,
	// so the per-cluster value can decrease.
	{"gridd_cluster_jobs_tracked", "Jobs tracked by this cluster (migrations move them).", "gauge",
		func(s Stats) float64 { return float64(s.Submitted) }},
	{"gridd_cluster_jobs_completed_total", "Jobs completed on this cluster.", "counter",
		func(s Stats) float64 { return float64(s.Completed) }},
	{"gridd_cluster_jobs_waiting", "Jobs waiting on this cluster (pending arrival or queued).", "gauge",
		func(s Stats) float64 { return float64(s.Waiting) }},
	{"gridd_cluster_jobs_running", "Jobs running on this cluster.", "gauge",
		func(s Stats) float64 { return float64(s.Running) }},
	{"gridd_cluster_utilization_ratio", "Processor-time utilization.", "gauge",
		func(s Stats) float64 { return s.Report.Utilization }},
	{"gridd_cluster_makespan_seconds", "Cmax over completed jobs.", "gauge",
		func(s Stats) float64 { return s.Report.Makespan }},
	{"gridd_cluster_mean_flow_seconds", "Mean flow over completed jobs.", "gauge",
		func(s Stats) float64 { return s.Report.MeanFlow }},
	{"gridd_cluster_max_flow_seconds", "Max flow over completed jobs.", "gauge",
		func(s Stats) float64 { return s.Report.MaxFlow }},
	{"gridd_cluster_mean_stretch", "Mean normalized stretch over completed jobs.", "gauge",
		func(s Stats) float64 { return s.Report.MeanStretch }},
	{"gridd_cluster_max_stretch", "Max normalized stretch over completed jobs.", "gauge",
		func(s Stats) float64 { return s.Report.MaxStretch }},
	{"gridd_cluster_best_effort_completed_total", "Best-effort tasks completed here.", "counter",
		func(s Stats) float64 { return float64(s.BestEffort.Completed) }},
	{"gridd_cluster_best_effort_killed_total", "Best-effort tasks killed here.", "counter",
		func(s Stats) float64 { return float64(s.BestEffort.Killed) }},
	{"gridd_cluster_best_effort_redistributed_total", "Killed best-effort tasks re-arrived after drifting through the stock.", "counter",
		func(s Stats) float64 { return float64(s.BestEffort.Redistributed) }},
	{"gridd_cluster_fault_crashes_total", "Capacity-loss events injected.", "counter",
		func(s Stats) float64 { return float64(s.Report.Faults.Crashes) }},
	{"gridd_cluster_fault_repairs_total", "Capacity-return events.", "counter",
		func(s Stats) float64 { return float64(s.Report.Faults.Repairs) }},
	{"gridd_cluster_fault_requeues_total", "Local jobs killed by crashes and requeued.", "counter",
		func(s Stats) float64 { return float64(s.Report.Faults.Requeues) }},
	{"gridd_cluster_fault_lost_work_seconds", "Reference-speed work destroyed by crashes.", "counter",
		func(s Stats) float64 { return s.Report.Faults.LostWork }},
	{"gridd_cluster_fault_down_proc_seconds", "Integrated unavailable capacity.", "counter",
		func(s Stats) float64 { return s.Report.Faults.DownProcSeconds }},
	{"gridd_cluster_virtual_time_seconds", "Cluster virtual clock.", "gauge",
		func(s Stats) float64 { return s.VirtualNow }},
	{"gridd_cluster_time_dilation", "Simulated seconds per wall second (0 = free-running).", "gauge",
		func(s Stats) float64 { return s.Dilation }},
	{"gridd_cluster_drained", "1 once the cluster stopped accepting submissions.", "gauge",
		func(s Stats) float64 {
			if s.Drained {
				return 1
			}
			return 0
		}},
}

// metricsHandler renders fleet and per-cluster series in Prometheus
// text exposition format, plus the run-store and trace series.
func (b *Broker) metricsHandler(runs *api.RunService) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		st, err := b.Stats()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		head := func(name, help, typ string) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		}
		fleet := func(name, help, typ string, v float64) {
			head(name, help, typ)
			fmt.Fprintf(w, "%s %g\n", name, v)
		}
		fleet("gridd_fleet_clusters", "Clusters in the fleet.", "gauge", float64(st.Fleet.Clusters))
		fleet("gridd_fleet_processors", "Total processors across the fleet.", "gauge", float64(st.Fleet.Procs))
		fleet("gridd_fleet_jobs_submitted_total", "Jobs accepted by the broker since start.", "counter", float64(st.Fleet.Submitted))
		fleet("gridd_fleet_jobs_completed_total", "Jobs completed across the fleet.", "counter", float64(st.Fleet.Completed))
		fleet("gridd_fleet_jobs_waiting", "Jobs waiting across the fleet.", "gauge", float64(st.Fleet.Waiting))
		fleet("gridd_fleet_jobs_running", "Jobs running across the fleet.", "gauge", float64(st.Fleet.Running))
		fleet("gridd_fleet_migrations_total", "Queued jobs migrated between clusters.", "counter", float64(st.Fleet.Migrations))
		fleet("gridd_fleet_campaigns_total", "Campaigns accepted.", "counter", float64(st.Fleet.Campaigns))
		fleet("gridd_fleet_campaigns_done", "Campaigns fully completed.", "gauge", float64(st.Fleet.CampaignsDone))
		fleet("gridd_fleet_campaign_stock", "Campaign tasks waiting in the central stock.", "gauge", float64(st.Fleet.Stock))
		fleet("gridd_fleet_best_effort_completed_total", "Best-effort tasks completed fleet-wide.", "counter", float64(st.Fleet.BestEffort.Completed))
		fleet("gridd_fleet_best_effort_killed_total", "Best-effort tasks killed fleet-wide.", "counter", float64(st.Fleet.BestEffort.Killed))
		fleet("gridd_fleet_virtual_time_seconds", "Fleet virtual clock (max across clusters).", "gauge", st.Fleet.VirtualNow)
		fleet("gridd_fleet_uptime_seconds", "Broker wall-clock uptime.", "gauge", st.Fleet.UptimeSeconds)
		for _, s := range clusterSeries {
			head(s.name, s.help, s.typ)
			for _, c := range st.Clusters {
				fmt.Fprintf(w, "%s{cluster=\"%s\"} %g\n", s.name, labelValue.Replace(c.Name), s.get(c.Stats))
			}
		}
		api.WriteRunMetrics(w, runs.Summary())
		metrics.WriteTraceMetrics(w)
	}
}

// labelValue escapes a label value as the Prometheus text format does:
// backslash, double quote and line feed, and nothing else (a Go %q
// escape such as \t is not one of the format's, and a scraper would
// reject the whole page).
var labelValue = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// policyInfo is one local queue policy of the /v1/policies catalog.
type policyInfo struct {
	Name       string `json:"name"`
	Caps       string `json:"caps"`
	Online     bool   `json:"online"`
	Offline    bool   `json:"offline"`
	Moldable   bool   `json:"moldable"`
	BestEffort bool   `json:"best_effort"`
	Desc       string `json:"desc"`
}

type gridPolicyInfo struct {
	Name      string `json:"name"`
	Kind      string `json:"kind"`
	Exchanges bool   `json:"exchanges"`
	Desc      string `json:"desc"`
}

type policyCatalog struct {
	Local []policyInfo     `json:"local"`
	Grid  []gridPolicyInfo `json:"grid"`
}

func handlePolicies(w http.ResponseWriter, r *http.Request) {
	var out policyCatalog
	for _, e := range registry.All() {
		out.Local = append(out.Local, policyInfo{
			Name: e.Name, Caps: e.Caps.String(),
			Online: e.Caps.Online, Offline: e.Caps.Offline,
			Moldable: e.Caps.Moldable, BestEffort: e.Caps.BestEffort,
			Desc: e.Desc,
		})
	}
	for _, e := range registry.Grids() {
		kind := "routing"
		if e.Exchanges() {
			kind = "routing+exchange"
		}
		out.Grid = append(out.Grid, gridPolicyInfo{
			Name: e.Name, Kind: kind, Exchanges: e.Exchanges(), Desc: e.Desc,
		})
	}
	api.WriteJSON(w, http.StatusOK, out)
}

func (b *Broker) handleTopology(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, b.Topology())
}
