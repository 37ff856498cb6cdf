package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// renderRows flattens a table into comparable strings.
func renderRows(t *testing.T, tb *trace.Table) []string {
	t.Helper()
	out := make([]string, 0, len(tb.Rows))
	for _, row := range tb.Rows {
		out = append(out, strings.Join(row, "|"))
	}
	return out
}

// renderLines is the text output of a result, line by line (figures
// included, which have no table).
func renderLines(t *testing.T, res *scenario.Result) []string {
	t.Helper()
	var sb strings.Builder
	if err := res.EmitFormat(&sb, "text"); err != nil {
		t.Fatal(err)
	}
	return strings.Split(sb.String(), "\n")
}

// TestParallelMatchesSequential: for a fixed seed, every table must be
// bit-identical between the sequential runner and the worker pool — the
// determinism contract of the parallel experiment harness.
func TestParallelMatchesSequential(t *testing.T) {
	// Subtest name → built-in scenario id.
	tables := map[string]string{
		"fig2":          "fig2",
		"mrt":           "mrt",
		"batch":         "batch",
		"smart":         "smart",
		"bicriteria":    "bicriteria",
		"dlt":           "dlt",
		"cigri":         "cigri",
		"decentralized": "decentralized",
		"mixed":         "mixed",
		"reservations":  "reservations",
		"malleable":     "malleable",
		"treedlt":       "treedlt",
		"criteria":      "criteria",
		"heterogrid":    "heterogrid",
		"gridpolicies":  "gridpolicies",
		"abl-allot":     "ablation-allotment",
		"abl-doubling":  "ablation-doubling-base",
		"abl-shelf":     "ablation-shelf-fill",
		"abl-chunk":     "ablation-chunk",
		"abl-kill":      "ablation-kill-policy",
		"abl-compact":   "ablation-compaction",
	}
	for name, id := range tables {
		t.Run(name, func(t *testing.T) {
			seq, err := catalogRun(id, 21, scenario.Scale{JobFactor: 20})
			if err != nil {
				t.Fatal(err)
			}
			par, err := catalogRun(id, 21, scenario.Scale{JobFactor: 20, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			seqRows, parRows := renderLines(t, seq), renderLines(t, par)
			if len(seqRows) != len(parRows) {
				t.Fatalf("line counts differ: sequential %d, parallel %d", len(seqRows), len(parRows))
			}
			for i := range seqRows {
				if seqRows[i] != parRows[i] {
					t.Fatalf("line %d differs:\n  sequential: %s\n  parallel:   %s",
						i, seqRows[i], parRows[i])
				}
			}
		})
	}
}

func TestRunCellsOrderAndErrors(t *testing.T) {
	// Results arrive in cell-index order however many workers run.
	for _, workers := range []int{0, 1, 3, 64} {
		got, err := runCells(scenario.RunOptions{Scale: scenario.Scale{Workers: workers}}, 20, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: cell %d = %d", workers, i, v)
			}
		}
	}
	// The lowest-index error wins, matching the sequential loop.
	boom7 := errors.New("boom 7")
	for _, workers := range []int{1, 4} {
		_, err := runCells(scenario.RunOptions{Scale: scenario.Scale{Workers: workers}}, 12, func(i int) (int, error) {
			if i >= 7 {
				return 0, fmt.Errorf("boom %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != boom7.Error() {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom7)
		}
	}
	// A panicking cell is that cell's error, on the pool as in the
	// sequential loop: no pool goroutine lets it take the process down.
	for _, workers := range []int{1, 8} {
		_, err := runCells(scenario.RunOptions{Scale: scenario.Scale{Workers: workers}}, 12, func(i int) (int, error) {
			if i == 5 {
				panic("poison cell")
			}
			return i, nil
		})
		if err == nil || !strings.Contains(err.Error(), "cell 5 panicked: poison cell") {
			t.Fatalf("workers=%d: err = %v, want cell 5's panic", workers, err)
		}
	}
}

// TestRunCellsCancel: cancelling the run context stops dispatch in
// both runners within one cell's work, returns the context error, and
// leaves the already-completed cells untouched.
func TestRunCellsCancel(t *testing.T) {
	for _, workers := range []int{0, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		_, err := runCells(scenario.RunOptions{Scale: scenario.Scale{Workers: workers}, Context: ctx}, 1000, func(i int) (int, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return i, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// Dispatch stops after the cancelling cell (plus at most the
		// cells already picked up by the pool).
		if n := ran.Load(); n >= 100 {
			t.Fatalf("workers=%d: %d cells ran after cancel", workers, n)
		}
	}
}

// TestRunCellsProgress: the progress hooks see the fan-out size and
// every completed cell exactly once, with a positive duration.
func TestRunCellsProgress(t *testing.T) {
	for _, workers := range []int{0, 4} {
		var mu sync.Mutex
		total := 0
		seen := map[int]int{}
		opt := scenario.RunOptions{
			Scale:        scenario.Scale{Workers: workers},
			OnCellsStart: func(n int) { mu.Lock(); total += n; mu.Unlock() },
			OnCellDone: func(i int, d time.Duration) {
				mu.Lock()
				seen[i]++
				if d < 0 {
					t.Errorf("cell %d: negative duration", i)
				}
				mu.Unlock()
			},
		}
		if _, err := runCells(opt, 17, func(i int) (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if total != 17 || len(seen) != 17 {
			t.Fatalf("workers=%d: total %d, distinct done %d", workers, total, len(seen))
		}
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("workers=%d: cell %d reported %d times", workers, i, n)
			}
		}
	}
}
