package experiments

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/scenario"
)

// allocBudgets are the allocation ceilings of the paper's tables: one row
// per catalog_tables scenario for a quick-scale pass, and a "paper" row
// for a paper-scale pass of all of them (seed 42). A ceiling is the value
// measured when it was set plus 10 %; the parent columns are what the
// commit before that measured, for the record. A ceiling only moves down
// without a stated reason.
var allocBudgets = []struct {
	id                        string
	parentBytes, parentAllocs uint64
	maxBytes, maxAllocs       uint64
}{
	{"fig2", 1960536, 8986, 1241856, 7718},
	{"mrt", 953240, 4403, 678894, 3029},
	{"batch", 221424, 1418, 101887, 870},
	{"smart", 117544, 1250, 129299, 1375},
	{"bicriteria", 191016, 993, 75936, 665},
	{"dlt", 23384, 593, 25723, 653},
	{"cigri", 461440, 3809, 507585, 4190},
	{"decentralized", 90448, 1107, 99493, 1218},
	{"mixed", 108104, 775, 67725, 561},
	{"reservations", 26320, 265, 22916, 270},
	{"malleable", 84464, 1154, 76191, 1209},
	{"treedlt", 48008, 1438, 52809, 1582},
	{"criteria", 63216, 503, 45954, 427},
	{"heterogrid", 1184688, 3146, 713698, 2583},
	{"policies", 227544, 2369, 250299, 2606},
	{"gridpolicies", 361792, 3252, 397972, 3578},
	{"faulttwin", 226040, 2334, 248645, 2568},
	{"ablation-allotment", 88872, 439, 58318, 395},
	{"ablation-doubling-base", 85792, 404, 33071, 259},
	{"ablation-shelf-fill", 63056, 756, 69362, 832},
	{"ablation-chunk", 10584, 162, 11643, 179},
	{"ablation-kill-policy", 89008, 779, 97909, 857},
	{"ablation-compaction", 86648, 510, 47406, 381},
	{"paper", 68294408, 278395, 48019700, 277150},
}

// catalogTables are the scenarios of the benchmark's catalog_tables
// workload: the catalog less replay and churn.
var catalogTables = []string{
	"fig2", "mrt", "batch", "smart", "bicriteria", "dlt", "cigri", "decentralized",
	"mixed", "reservations", "malleable", "treedlt", "criteria", "heterogrid",
	"policies", "gridpolicies", "faulttwin",
	"ablation-allotment", "ablation-doubling-base", "ablation-shelf-fill",
	"ablation-chunk", "ablation-kill-policy", "ablation-compaction",
}

// passAllocs runs the scenarios once on the sequential cell runner at
// the given job factor, rendering each as text, and returns the bytes
// and objects the pass allocated. It runs on one P with the collector
// off, so that pooled scratch is neither dropped nor split between Ps
// and the counts repeat exactly.
func passAllocs(t *testing.T, ids []string, jobFactor int) (nbytes, allocs uint64) {
	t.Helper()
	var before, after runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, id := range ids {
		spec, ok := scenario.Lookup(id)
		if !ok {
			t.Fatalf("%s is not in the catalog", id)
		}
		res, err := scenario.Run(spec, scenario.RunOptions{
			Seed: 42, SeedExplicit: true, Scale: scenario.Scale{JobFactor: jobFactor},
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.EmitFormat(&buf, "text"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestAllocBudget: no pass allocates more bytes or objects than its
// ceiling, each measured after one warm-up pass.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; budgets are for plain builds")
	}
	if len(allocBudgets) != len(catalogTables)+1 {
		t.Fatalf("%d budget rows for %d scenarios and one paper-scale pass", len(allocBudgets), len(catalogTables))
	}
	for i, row := range allocBudgets {
		ids, factor := []string{row.id}, 10
		if row.id == "paper" {
			ids, factor = catalogTables, 1
		} else if row.id != catalogTables[i] {
			t.Fatalf("budget row %d is %s, want %s", i, row.id, catalogTables[i])
		}
		passAllocs(t, ids, factor)
		b, a := passAllocs(t, ids, factor)
		t.Logf("%-24s %9d B (parent %9d, ceiling %9d) %6d allocs (parent %6d, ceiling %6d)",
			row.id, b, row.parentBytes, row.maxBytes, a, row.parentAllocs, row.maxAllocs)
		if b > row.maxBytes || a > row.maxAllocs {
			t.Errorf("%s: %d bytes in %d allocations, over the ceiling of %d bytes in %d", row.id, b, a, row.maxBytes, row.maxAllocs)
		}
	}
}
