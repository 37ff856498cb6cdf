package main

// The benchmark's declared surface: workloads and metrics, mirrored by
// BENCHMARK.json (spec_test.go holds the two together).

// workloadDecl names a workload and why it exists.
type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDecl is one declared metric. Bound is set on end-to-end
// metrics only: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type metricDecl struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkFile is the exact shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

const (
	wReplayStream  = "replay_stream"
	wDeepQueue     = "deep_queue"
	wCatalogTables = "catalog_tables"
	wServeDurable  = "serve_durable"
	wServeMemo     = "serve_memo"
	wFleetShard    = "fleet_shard"
)

var workloads = []workloadDecl{
	{wReplayStream, "100k-job SWF archive streamed through cluster.Sim under EASY at ~50% load: queue stays near empty, so DES heap, profile updates, SWF parsing and per-job allocation do the work, not the policy"},
	{wDeepQueue, "saturating mixed stream with a queue hundreds deep under conservative and EASY backfilling: policy decisions and rigid.Profile clone/slot/reserve dominate; I/O and allocation are negligible"},
	{wCatalogTables, "the 23 paper-scale catalog scenarios (all but replay and churn) run and rendered: time to the paper's tables; work sits in the offline algorithms and table rendering"},
	{wServeDurable, "real gridd with fsynced WAL, 2 closed-loop clients, distinct quick runs so nothing memoises: HTTP, executor hand-off, three WAL appends per run, SSE and eviction dominate"},
	{wServeMemo, "same daemon and clients, 8 primed keys resubmitted: read-mostly memo hits that execute no cells but re-append the terminal payload; moves opposite to serve_durable on store changes"},
	{wFleetShard, "coordinator plus two worker processes, one closed-loop client, paper-scale multi-cell runs: lease, execute, complete and merge are on every run's blocking path (2 cores: overhead, not scaling)"},
}

func bound(b float64) *float64 { return &b }

// endToEnd metrics are reported by every workload (the acceptance
// driver requires each one on each run), so they are named for what a
// user of any workload sees; the unit of work and the operation differ
// per workload and are spelled out in README.md:
//
//	replay_stream, deep_queue  work = DES event        op = one replay pass
//	catalog_tables             work = rendered table   op = one pass over the 23 scenarios
//	serve_*, fleet_shard       work = completed run    op = submit → result text in hand
//
// Every bound is the largest the contract allows, 25%: about three
// times the widest interquartile spreads seen over ten seeds (8-10%,
// README.md "Repeatability") on a host whose raw timings spread 15-35%.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", bound(0.25)},
	{"work_per_s", "1/s", "higher", bound(0.25)},
	{"op_ms_p50", "ms", "lower", bound(0.25)},
	{"op_ms_tail", "ms", "lower", bound(0.25)},
	{"peak_mem_mb", "MB", "lower", bound(0.25)},
	{"cpu_ms_per_op", "ms", "lower", bound(0.25)},
}

// tableIDs are the catalog scenarios catalog_tables runs, frozen here
// so a later catalog addition does not silently change the workload.
// replay is left out because 99% of it is the conservative cell
// deep_queue already measures; churn because its fault engine livelocks
// on roughly one seed in 4000 at paper scale (seed 4100 never returns),
// and the workload's seed is the driver's to choose.
var tableIDs = []string{
	"fig2", "mrt", "batch", "smart", "bicriteria", "dlt", "cigri", "decentralized",
	"mixed", "reservations", "malleable", "treedlt", "criteria", "heterogrid",
	"policies", "gridpolicies", "faulttwin",
	"ablation-allotment", "ablation-doubling-base", "ablation-shelf-fill",
	"ablation-chunk", "ablation-kill-policy", "ablation-compaction",
}

// perLayer metrics come from the traced run. Every traced run prints
// all of them; a layer the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	m := []metricDecl{
		{"des.ns_per_event", "ns", "lower", nil},
		{"des.events", "count", "lower", nil},
		{"rigid.slot_reserve_ns", "ns", "lower", nil},
		{"rigid.clone_ns", "ns", "lower", nil},
		{"cluster.decide_calls", "count", "lower", nil},
		{"cluster.decide_us_mean.easy", "us", "lower", nil},
		{"cluster.decide_us_mean.conservative", "us", "lower", nil},
		{"cluster.decide_share", "ratio", "lower", nil},
		{"cluster.queue_len_mean", "count", "lower", nil},
		{"cluster.starts_per_decide", "ratio", "higher", nil},
		{"cluster.allocs_per_job", "count", "lower", nil},
		{"cluster.alloc_bytes_per_job", "B", "lower", nil},
		{"cluster.self_ns_per_job", "ns", "lower", nil},
		{"trace.swf_next_ns_per_job", "ns", "lower", nil},
		{"trace.swf_share", "ratio", "lower", nil},
		{"trace.swf_write_ns_per_job", "ns", "lower", nil},
		{"trace.table_emit_us_mean", "us", "lower", nil},
		{"workload.gen_ns_per_job", "ns", "lower", nil},
		{"metrics.retention_add_ns_per_job", "ns", "lower", nil},
	}
	for _, id := range tableIDs {
		m = append(m, metricDecl{"scenario.run_ms." + id, "ms", "lower", nil})
	}
	return append(m, []metricDecl{
		{"scenario.cells_per_pass", "count", "lower", nil},
		{"scenario.cell_ms_p50", "ms", "lower", nil},
		{"scenario.cell_ms_p99", "ms", "lower", nil},
		{"scenario.spec_decode_us", "us", "lower", nil},
		{"scenario.wire_codec_us_per_row", "us", "lower", nil},
		{"runtrace.jsonl_encode_ns_per_event", "ns", "lower", nil},
		{"runtrace.record_overhead_pct", "%", "lower", nil},
		{"store.append_us_p50", "us", "lower", nil},
		{"store.append_us_p99", "us", "lower", nil},
		{"store.append_nosync_us_p50", "us", "lower", nil},
		{"store.fsync_share", "ratio", "lower", nil},
		{"store.bytes_per_append.submit", "B", "lower", nil},
		{"store.bytes_per_append.terminal", "B", "lower", nil},
		{"store.bytes_per_append.cached_submit", "B", "lower", nil},
		{"store.disk_bytes_per_run", "B", "lower", nil},
		{"store.compactions", "count", "lower", nil},
		{"store.snapshot_bytes", "B", "lower", nil},
		{"store.recover_ms", "ms", "lower", nil},
		{"api.handler_ms_p50.submit", "ms", "lower", nil},
		{"api.handler_ms_p50.events", "ms", "lower", nil},
		{"api.handler_ms_p50.result", "ms", "lower", nil},
		{"api.handler_ms_p99.submit", "ms", "lower", nil},
		{"api.queue_wait_ms_p50", "ms", "lower", nil},
		{"api.exec_ms_p50", "ms", "lower", nil},
		{"api.memo_hit_share", "ratio", "higher", nil},
		{"api.rejected_429", "count", "lower", nil},
		{"api.evictions", "count", "lower", nil},
		{"client.transport_ms_p50", "ms", "lower", nil},
		{"client.submit_ack_ms_p50", "ms", "lower", nil},
		{"client.submit_ack_ms_p99", "ms", "lower", nil},
		{"client.run_e2e_ms_p99", "ms", "lower", nil},
		{"client.sse_events_per_run", "count", "lower", nil},
		{"fleet.lease_wait_ms_p50", "ms", "lower", nil},
		{"fleet.lease_to_complete_ms_p50", "ms", "lower", nil},
		{"fleet.complete_rtt_ms_p50", "ms", "lower", nil},
		{"fleet.cells_per_lease_mean", "count", "higher", nil},
		{"fleet.cells_per_s", "1/s", "higher", nil},
		{"fleet.worker_idle_share", "ratio", "lower", nil},
		{"fleet.requeued_cells", "count", "lower", nil},
		{"fleet.duplicate_completes", "count", "lower", nil},
		{"fleet.vs_local_ratio", "ratio", "higher", nil},
		{"harness.trace_overhead_pct", "%", "lower", nil},
		{"harness.build_s", "s", "lower", nil},
		{"harness.calib_ms", "ms", "lower", nil},
	}...)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}
