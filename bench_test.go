// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md experiment index), plus the DESIGN.md §5
// ablations. Each benchmark regenerates its artifact end to end —
// workload generation, policy run, lower bounds, table rendering — so
// -bench times reflect the full experiment cost. Shapes (who wins, which
// bounds hold) are asserted by the experiment package's tests; here we
// only keep the artifacts honest by failing on errors.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"runtime"
	"testing"

	"repro/internal/bicriteria"
	"repro/internal/scenario"
)

// benchScale keeps individual iterations under ~100 ms so -benchtime
// produces stable numbers; pass -benchscale=1 wiring is deliberately
// omitted — full-scale tables come from `gridctl local`. Workers enables
// the parallel replication runner, so BenchmarkTable* time what
// `gridctl local -workers N` ships; tables stay bit-identical to the
// sequential runner (asserted by TestParallelMatchesSequential in
// internal/experiments).
var benchScale = scenario.Scale{JobFactor: 10, Workers: runtime.GOMAXPROCS(0)}

// benchTable regenerates built-in scenario id once per iteration.
func benchTable(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := catalogTable(id, uint64(i), benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig2NonParallel regenerates the "Non Parallel" series of
// Figure 2 (100 machines, sequential jobs).
func BenchmarkFig2NonParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bicriteria.Fig2Series(bicriteria.Fig2Config{
			M: 100, Ns: []int{10, 50, 100, 200}, Seed: uint64(i), Reps: 1, Parallel: false,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 4 {
			b.Fatal("short series")
		}
	}
}

// BenchmarkFig2Parallel regenerates the "Parallel" series of Figure 2.
func BenchmarkFig2Parallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts, err := bicriteria.Fig2Series(bicriteria.Fig2Config{
			M: 100, Ns: []int{10, 50, 100, 200}, Seed: uint64(i), Reps: 1, Parallel: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 4 {
			b.Fatal("short series")
		}
	}
}

// BenchmarkTableMRT regenerates T1 (§4.1, MRT vs baselines).
func BenchmarkTableMRT(b *testing.B) { benchTable(b, "mrt") }

// BenchmarkTableBatch regenerates T2 (§4.2, online batches over MRT).
func BenchmarkTableBatch(b *testing.B) { benchTable(b, "batch") }

// BenchmarkTableSMART regenerates T3 (§4.3, SMART shelves).
func BenchmarkTableSMART(b *testing.B) { benchTable(b, "smart") }

// BenchmarkTableBiCriteria regenerates T4 (§4.4, doubling bi-criteria).
func BenchmarkTableBiCriteria(b *testing.B) { benchTable(b, "bicriteria") }

// BenchmarkTableDLT regenerates T5 (§2.1, divisible-load policies).
func BenchmarkTableDLT(b *testing.B) { benchTable(b, "dlt") }

// BenchmarkTableCiGri regenerates T6 (§5.2, centralized CiGri on CIMENT).
func BenchmarkTableCiGri(b *testing.B) { benchTable(b, "cigri") }

// BenchmarkTableDecentralized regenerates T7 (§5.2, load exchange).
func BenchmarkTableDecentralized(b *testing.B) { benchTable(b, "decentralized") }

// BenchmarkTableMixed regenerates T8 (§5.1, rigid+moldable strategies).
func BenchmarkTableMixed(b *testing.B) { benchTable(b, "mixed") }

// BenchmarkTableReservations regenerates T9 (§5.1, reservations).
func BenchmarkTableReservations(b *testing.B) { benchTable(b, "reservations") }

// BenchmarkTableMalleable regenerates EXT1 (§2.2 malleable extension).
func BenchmarkTableMalleable(b *testing.B) { benchTable(b, "malleable") }

// BenchmarkTableTreeDLT regenerates EXT2 (tree-network divisible load).
func BenchmarkTableTreeDLT(b *testing.B) { benchTable(b, "treedlt") }

// BenchmarkTableCriteriaMatrix regenerates EXT3 (criteria matrix).
func BenchmarkTableCriteriaMatrix(b *testing.B) { benchTable(b, "criteria") }

// BenchmarkTableHeteroGrid regenerates EXT4 (two-level grid scheduling).
func BenchmarkTableHeteroGrid(b *testing.B) { benchTable(b, "heterogrid") }

// BenchmarkAblationAllotment compares knapsack vs greedy MRT allotment.
func BenchmarkAblationAllotment(b *testing.B) { benchTable(b, "ablation-allotment") }

// BenchmarkAblationDoublingBase sweeps the bi-criteria base deadline.
func BenchmarkAblationDoublingBase(b *testing.B) { benchTable(b, "ablation-doubling-base") }

// BenchmarkAblationShelfFill compares SMART shelf-filling rules.
func BenchmarkAblationShelfFill(b *testing.B) { benchTable(b, "ablation-shelf-fill") }

// BenchmarkAblationChunk sweeps the DLT self-scheduling chunk size.
func BenchmarkAblationChunk(b *testing.B) { benchTable(b, "ablation-chunk") }

// BenchmarkAblationKillPolicy compares best-effort eviction rules.
func BenchmarkAblationKillPolicy(b *testing.B) { benchTable(b, "ablation-kill-policy") }

// BenchmarkAblationCompaction measures the left-shift post-pass.
func BenchmarkAblationCompaction(b *testing.B) { benchTable(b, "ablation-compaction") }
