package experiments

import (
	"testing"

	"repro/internal/scenario"
)

// TestFaultTablesParallelMatchSequential: the new fault tables must be
// bit-identical between the sequential runner and the worker pool, the
// same contract the healthy tables honour — churn seeds are derived
// per cell, never from worker identity or completion order.
func TestFaultTablesParallelMatchSequential(t *testing.T) {
	for _, id := range []string{"churn", "faulttwin"} {
		t.Run(id, func(t *testing.T) {
			seq, err := catalogRun(id, 21, scenario.Scale{JobFactor: 20})
			if err != nil {
				t.Fatal(err)
			}
			par, err := catalogRun(id, 21, scenario.Scale{JobFactor: 20, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			seqRows := renderRows(t, seq.Table)
			parRows := renderRows(t, par.Table)
			if len(seqRows) == 0 {
				t.Fatal("table is empty")
			}
			if len(seqRows) != len(parRows) {
				t.Fatalf("row counts differ: sequential %d, parallel %d", len(seqRows), len(parRows))
			}
			for i := range seqRows {
				if seqRows[i] != parRows[i] {
					t.Fatalf("row %d differs:\n  sequential: %s\n  parallel:   %s",
						i, seqRows[i], parRows[i])
				}
			}
		})
	}
}

// TestChurnTableShape: the churn table carries the twin-error column
// and a healthy baseline row (MTBF 0) with zero crashes.
func TestChurnTableShape(t *testing.T) {
	tb, err := catalogTable("churn", 7, scenario.Scale{JobFactor: 25})
	if err != nil {
		t.Fatal(err)
	}
	last := len(tb.Headers) - 1
	if tb.Headers[last] != "twin err %" {
		t.Fatalf("last column is %q, want the twin error", tb.Headers[last])
	}
	foundHealthy := false
	for _, row := range tb.Rows {
		if row[0] == "0" {
			foundHealthy = true
			if row[4] != "0" {
				t.Fatalf("healthy baseline row reports %s crashes", row[4])
			}
		}
	}
	if !foundHealthy {
		t.Fatal("no healthy (MTBF 0) baseline row")
	}
}
