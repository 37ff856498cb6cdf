package experiments

import "repro/internal/scenario"

// This file wires the experiment engine into internal/scenario: it
// registers every kind runner (each one a scenario.Runner as written)
// with its param schema, and the built-in Spec catalog that reproduces
// the paper's evaluation. Catalog registration order is the display
// order of `gridctl scenarios` and the expansion order of
// `gridctl local all` (figures, tables, ablations).

// params is a kind's param schema.
type params = map[string]scenario.ParamType

func init() {
	// Kind interpreters. One per bespoke table, plus the generic
	// JSON-composable kinds ("offline", "online", "grid") that the
	// built-in T14/T15 specs are themselves instances of.
	scenario.RegisterKind("fig2", fig2Run, params{"m": scenario.IntParam, "reps": scenario.IntParam, "ns": scenario.IntsParam, "quick_ns": scenario.IntsParam})
	scenario.RegisterKind("mrt", mrtRun, params{"ms": scenario.IntsParam, "ns": scenario.IntsParam, "eps": scenario.FloatParam})
	scenario.RegisterKind("batch", batchRun, params{"m": scenario.IntParam, "n": scenario.IntParam, "rates": scenario.FloatsParam, "eps": scenario.FloatParam})
	scenario.RegisterKind("smart", smartRun, params{"ms": scenario.IntsParam, "n": scenario.IntParam})
	scenario.RegisterKind("bicriteria", bicriteriaRun, params{"m": scenario.IntParam, "ns": scenario.IntsParam, "eps": scenario.FloatParam})
	scenario.RegisterKind("dlt", dltRun, params{"latencies": scenario.FloatsParam, "w": scenario.FloatParam})
	scenario.RegisterKind("cigri", cigriRun, params{"runs": scenario.IntParam, "run_time": scenario.FloatParam})
	scenario.RegisterKind("decentralized", decentralizedRun, params{"n": scenario.IntParam, "period": scenario.FloatParam, "threshold": scenario.FloatParam, "max_move": scenario.IntParam})
	scenario.RegisterKind("mixed", mixedRun, params{"m": scenario.IntParam, "n": scenario.IntParam, "fracs": scenario.FloatsParam})
	scenario.RegisterKind("reservations", reservationsRun, params{"m": scenario.IntParam, "n": scenario.IntParam})
	scenario.RegisterKind("malleable", malleableRun, params{"ms": scenario.IntsParam, "n": scenario.IntParam})
	scenario.RegisterKind("treedlt", treeDLTRun, params{"w": scenario.FloatParam})
	scenario.RegisterKind("criteria", criteriaRun, params{"m": scenario.IntParam, "n": scenario.IntParam})
	scenario.RegisterKind("heterogrid", heteroGridRun, nil)
	scenario.RegisterKind("online", onlineRun, params{"rates": scenario.FloatsParam, "kill": scenario.StringParam})
	scenario.RegisterKind("grid", gridRun, params{"kill": scenario.StringParam})
	scenario.RegisterKind("offline", offlineRun, nil)
	scenario.RegisterKind("replay", replayRun, params{"swf": scenario.StringParam, "retain": scenario.StringParam, "ring": scenario.IntParam, "kill": scenario.StringParam})
	scenario.RegisterKind("faults", faultsRun, params{"mtbfs": scenario.FloatsParam, "crash_procs": scenario.IntParam, "tasks": scenario.IntParam, "kill": scenario.StringParam})
	scenario.RegisterKind("faulttwin", faultTwinRun, params{"n": scenario.IntParam, "m": scenario.IntParam, "kill": scenario.StringParam})
	scenario.RegisterKind("ablation-allotment", ablationAllotmentRun, params{"ms": scenario.IntsParam, "n": scenario.IntParam, "eps": scenario.FloatParam})
	scenario.RegisterKind("ablation-doubling-base", ablationDoublingBaseRun, params{"m": scenario.IntParam, "n": scenario.IntParam})
	scenario.RegisterKind("ablation-shelf-fill", ablationShelfFillRun, params{"ms": scenario.IntsParam, "n": scenario.IntParam})
	scenario.RegisterKind("ablation-chunk", ablationChunkRun, params{"w": scenario.FloatParam, "latency": scenario.FloatParam, "chunks": scenario.FloatsParam})
	scenario.RegisterKind("ablation-kill-policy", ablationKillPolicyRun, params{"n": scenario.IntParam, "tasks": scenario.IntParam})
	scenario.RegisterKind("ablation-compaction", ablationCompactionRun, params{"m": scenario.IntParam, "n": scenario.IntParam})

	// Built-in catalog: the paper's evaluation as Specs. Each records
	// its headline parameters explicitly (same values the kind would
	// default to) so an encoded spec documents the experiment and a
	// tweaked copy is a complete starting point.
	scenario.Register(scenario.New("fig2", "fig2",
		scenario.WithGroup(scenario.GroupFigure),
		scenario.WithDesc("Figure 2: bi-criteria doubling ratios vs n, both job families"),
		scenario.WithParam("m", 100), scenario.WithParam("reps", 3)))
	scenario.Register(scenario.New("mrt", "mrt",
		scenario.WithTitle("T1 — §4.1 offline moldable Cmax: MRT (3/2+ε) vs baselines (ratios to lower bound)"),
		scenario.WithDesc("T1: offline MRT vs naive allotment baselines"),
		scenario.WithParam("ms", []int{16, 64, 100}),
		scenario.WithParam("ns", []int{50, 200, 1000}),
		scenario.WithParam("eps", 0.01)))
	scenario.Register(scenario.New("batch", "batch",
		scenario.WithTitle("T2 — §4.2 online moldable Cmax: batches over MRT (ratios to lower bound, bound 3+ε)"),
		scenario.WithDesc("T2: online batch framework across arrival intensities"),
		scenario.WithParam("m", 64), scenario.WithParam("n", 300),
		scenario.WithParam("rates", []float64{0.05, 0.5, 5})))
	scenario.Register(scenario.New("smart", "smart",
		scenario.WithTitle("T3 — §4.3 rigid completion-time sums: SMART shelves (ratios to lower bound)"),
		scenario.WithDesc("T3: SMART shelves vs list baseline, weighted and not"),
		scenario.WithParam("ms", []int{16, 64}), scenario.WithParam("n", 400)))
	scenario.Register(scenario.New("bicriteria", "bicriteria",
		scenario.WithTitle("T4 — §4.4 bi-criteria doubling: both ratios bounded by 4ρ = 6"),
		scenario.WithDesc("T4: doubling algorithm vs pure MRT on both families"),
		scenario.WithParam("m", 64), scenario.WithParam("ns", []int{100, 500})))
	scenario.Register(scenario.New("dlt", "dlt",
		scenario.WithTitle("T5 — §2.1 divisible load policies (makespans, lower bound in last column)"),
		scenario.WithDesc("T5: divisible load single/multi-round vs self-scheduling"),
		scenario.WithParam("latencies", []float64{0, 1, 10, 100}),
		scenario.WithParam("w", 10000)))
	scenario.Register(scenario.New("cigri", "cigri",
		scenario.WithTitle("T6 — §5.2 centralized CiGri on CIMENT (Figure 3 platform)"),
		scenario.WithDesc("T6: centralized CiGri campaign over community load"),
		scenario.WithParam("runs", 5000), scenario.WithParam("run_time", 60)))
	scenario.Register(scenario.New("decentralized", "decentralized",
		scenario.WithTitle("T7 — §5.2 decentralized load exchange (4×32-proc clusters, all load on cluster 0)"),
		scenario.WithDesc("T7: isolated vs push vs pull load exchange"),
		scenario.WithParam("n", 200), scenario.WithParam("period", 30),
		scenario.WithParam("threshold", 1.3), scenario.WithParam("max_move", 8)))
	scenario.Register(scenario.New("mixed", "mixed",
		scenario.WithTitle("T8 — §5.1 rigid+moldable mixes: the three proposed strategies (Cmax/ΣwC ratios to lower bounds)"),
		scenario.WithDesc("T8: three strategies for mixing rigid and moldable jobs"),
		scenario.WithParam("m", 64), scenario.WithParam("n", 200),
		scenario.WithParam("fracs", []float64{0.3, 0.7})))
	scenario.Register(scenario.New("reservations", "reservations",
		scenario.WithTitle("T9 — §5.1 reservations: makespan ratios to the reservation-free lower bound"),
		scenario.WithDesc("T9: FCFS vs conservative backfilling around reservations"),
		scenario.WithParam("m", 32), scenario.WithParam("n", 100)))
	scenario.Register(scenario.New("malleable", "malleable",
		scenario.WithTitle("EXT1 — §2.2 malleable jobs (paper's future work): EQUI vs moldable MRT (ratios to lower bound)"),
		scenario.WithDesc("EXT1: malleable EQUI vs moldable MRT"),
		scenario.WithParam("ms", []int{16, 64}), scenario.WithParam("n", 150)))
	scenario.Register(scenario.New("treedlt", "treedlt",
		scenario.WithTitle("EXT2 — [4] divisible load on tree networks (same 13 workers, growing depth; W=10000)"),
		scenario.WithDesc("EXT2: divisible load on trees of growing depth"),
		scenario.WithParam("w", 10000)))
	scenario.Register(scenario.New("criteria", "criteria",
		scenario.WithTitle("EXT3 — §3 criteria matrix: one workload, every policy, every criterion (ratios to lower bounds where defined)"),
		scenario.WithDesc("EXT3: every policy scored on every §3 criterion"),
		scenario.WithParam("m", 64), scenario.WithParam("n", 200)))
	scenario.Register(scenario.New("heterogrid", "heterogrid",
		scenario.WithTitle("EXT4 — two-level moldable scheduling on the CIMENT grid (makespans, ratios to grid LB)"),
		scenario.WithDesc("EXT4: two-level scheduling on the heterogeneous grid")))
	scenario.Register(scenario.New("policies", "online",
		scenario.WithTitle("T14 — online policy catalog (registry): §3 criteria per queue policy on shared arrival streams"),
		scenario.WithDesc("T14: every online registry policy on shared arrival streams"),
		scenario.WithWorkload(scenario.Workload{N: 300, M: 64, RigidFraction: 0.5}),
		scenario.WithParam("rates", []float64{0.05, 0.2})))
	scenario.Register(scenario.New("gridpolicies", "grid",
		scenario.WithTitle("T15 — online grid policies (broker routing catalog): 4 heterogeneous clusters, shared stream + campaign"),
		scenario.WithDesc("T15: every grid routing policy on one fleet + campaign"),
		scenario.WithWorkload(scenario.Workload{N: 240, M: 32, ArrivalRate: 0.1, RigidFraction: 1, MaxProcsCap: 32}),
		scenario.WithGrid(scenario.Grid{ExchangePeriod: 30, Threshold: 1.3, MaxMove: 8,
			CampaignTasks: 2400, CampaignRunTime: 30})))

	scenario.Register(scenario.New("replay", "replay",
		scenario.WithTitle("EXT5 — streaming replay: lazy admission + O(1) accumulator, online catalog on one shared stream"),
		scenario.WithDesc("EXT5: streamed workload replay with O(active) memory"),
		scenario.WithWorkload(scenario.Workload{N: 2000, M: 64, ArrivalRate: 2, RigidFraction: 0.5}),
		scenario.WithParam("retain", "none")))

	scenario.Register(scenario.New("churn", "faults",
		scenario.WithTitle("EXT6 — policy robustness under node churn: §3 criteria and best-effort loss vs MTBF"),
		scenario.WithDesc("EXT6: online policies under seeded node churn, BE loss vs MTBF"),
		scenario.WithWorkload(scenario.Workload{N: 120, M: 64, ArrivalRate: 0.5, RigidFraction: 1}),
		scenario.WithParam("mtbfs", []float64{0, 2000, 500, 150}),
		scenario.WithParam("crash_procs", 8),
		scenario.WithParam("tasks", 600)))
	scenario.Register(scenario.New("faulttwin", "faulttwin",
		scenario.WithTitle("EXT7 — analytical twin: predicted (availability-discounted LB) vs simulated makespan per fault plan"),
		scenario.WithDesc("EXT7: closed-form availability-discounted bound vs simulation"),
		scenario.WithParam("n", 400), scenario.WithParam("m", 32)))

	scenario.Register(scenario.New("ablation-allotment", "ablation-allotment",
		scenario.WithGroup(scenario.GroupAblation),
		scenario.WithDesc("MRT allotment selection: knapsack vs greedy γ(λ)")))
	scenario.Register(scenario.New("ablation-doubling-base", "ablation-doubling-base",
		scenario.WithGroup(scenario.GroupAblation),
		scenario.WithDesc("bi-criteria initial deadline choice")))
	scenario.Register(scenario.New("ablation-shelf-fill", "ablation-shelf-fill",
		scenario.WithGroup(scenario.GroupAblation),
		scenario.WithDesc("SMART shelf filling: first-fit vs best-fit")))
	scenario.Register(scenario.New("ablation-chunk", "ablation-chunk",
		scenario.WithGroup(scenario.GroupAblation),
		scenario.WithDesc("DLT self-scheduling chunk size under latency")))
	scenario.Register(scenario.New("ablation-kill-policy", "ablation-kill-policy",
		scenario.WithGroup(scenario.GroupAblation),
		scenario.WithDesc("best-effort eviction rule comparison")))
	scenario.Register(scenario.New("ablation-compaction", "ablation-compaction",
		scenario.WithGroup(scenario.GroupAblation),
		scenario.WithDesc("left-shift compaction post-pass on bi-criteria schedules")))
}
