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
	{"fig2", 1127760, 6977, 1222760, 1850},
	{"mrt", 617480, 2759, 678894, 1786},
	{"batch", 92784, 795, 101887, 587},
	{"smart", 117720, 1255, 117515, 866},
	{"bicriteria", 69208, 609, 75706, 351},
	{"dlt", 23624, 598, 25723, 653},
	{"cigri", 459704, 3618, 502348, 3452},
	{"decentralized", 98712, 1156, 99493, 1218},
	{"mixed", 57488, 509, 61609, 435},
	{"reservations", 20992, 250, 22625, 245},
	{"malleable", 69408, 1104, 76191, 1122},
	{"treedlt", 48168, 1443, 52809, 1582},
	{"criteria", 38448, 388, 42689, 364},
	{"heterogrid", 649024, 2353, 709324, 1130},
	{"policies", 218184, 2342, 226662, 1811},
	{"gridpolicies", 315184, 2926, 337955, 3143},
	{"faulttwin", 226792, 2298, 235374, 1756},
	{"ablation-allotment", 53160, 364, 58318, 209},
	{"ablation-doubling-base", 30224, 240, 33071, 168},
	{"ablation-shelf-fill", 63200, 761, 63897, 580},
	{"ablation-chunk", 10760, 167, 11643, 179},
	{"ablation-kill-policy", 88992, 780, 94142, 799},
	{"ablation-compaction", 43240, 351, 47406, 227},
	{"paper", 43129104, 238190, 46026279, 101831},
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
