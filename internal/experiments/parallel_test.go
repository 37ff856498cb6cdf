package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// TestRunCellsLowestErrorWins: the reported error is the lowest failed
// cell's even when a higher cell fails first, whatever the width.
func TestRunCellsLowestErrorWins(t *testing.T) {
	const n = 12
	for _, w := range []int{1, 4, n} {
		for run := range 50 {
			_, err := fanOut(scenario.RunOptions{}, n, w, func(i int) (time.Duration, error) {
				switch i {
				case 3:
					time.Sleep(2 * time.Millisecond)
					return 0, errors.New("boom 3")
				case 7:
					return 0, errors.New("boom 7")
				}
				return 0, nil
			})
			if err == nil || err.Error() != "boom 3" {
				t.Fatalf("w=%d run %d: err = %v, want boom 3", w, run, err)
			}
		}
	}
}

// goid is the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestRunCellsSequentialOnCaller: at Workers 0 or 1 the cells run in
// order on the caller's goroutine, and none starts after the first
// failure.
func TestRunCellsSequentialOnCaller(t *testing.T) {
	caller := goid()
	for _, workers := range []int{0, 1} {
		var order []int
		_, err := runCells(scenario.RunOptions{Scale: scenario.Scale{Workers: workers}}, 10, func(i int) (int, error) {
			if g := goid(); g != caller {
				t.Errorf("workers=%d: cell %d ran on goroutine %s, caller is %s", workers, i, g, caller)
			}
			order = append(order, i)
			if i == 4 {
				return 0, errors.New("boom 4")
			}
			return i, nil
		})
		if err == nil || err.Error() != "boom 4" {
			t.Fatalf("workers=%d: err = %v, want boom 4", workers, err)
		}
		if fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Fatalf("workers=%d: cells ran in order %v, want [0 1 2 3 4]", workers, order)
		}
	}
}

// TestRunCellsBelowFailureAllRun: on several goroutines, a failure
// skips only cells above it; every cell below it still runs.
func TestRunCellsBelowFailureAllRun(t *testing.T) {
	const n, failed = 40, 20
	for _, w := range []int{2, 4, n} {
		for run := range 10 {
			var ran [n]atomic.Bool
			_, err := fanOut(scenario.RunOptions{}, n, w, func(i int) (time.Duration, error) {
				ran[i].Store(true)
				if i == failed {
					return 0, errors.New("boom")
				}
				time.Sleep(100 * time.Microsecond)
				return 0, nil
			})
			if err == nil {
				t.Fatalf("w=%d run %d: no error", w, run)
			}
			for i := range failed + 1 {
				if !ran[i].Load() {
					t.Fatalf("w=%d run %d: cell %d below the failure was skipped", w, run, i)
				}
			}
		}
	}
}

// barrierRunner is a fake fleet coordinator: every RunCell blocks until
// all n cells are in flight at once, then reports cell i's rows and a
// worker-measured duration of i+1 ms. With hold set, the cells then
// wait for the run's context to end instead.
type barrierRunner struct {
	n       int32
	arrived atomic.Int32
	all     chan struct{}
	hold    bool
}

func (r *barrierRunner) RunCell(ctx context.Context, _, cell int) ([][]any, time.Duration, error) {
	if r.arrived.Add(1) == r.n {
		close(r.all)
	}
	select {
	case <-r.all:
	case <-time.After(10 * time.Second):
		return nil, 0, fmt.Errorf("cell %d: the %d cells were never in flight at once", cell, r.n)
	}
	if r.hold {
		<-ctx.Done()
		return nil, 0, ctx.Err()
	}
	return [][]any{{cell}}, time.Duration(cell+1) * time.Millisecond, nil
}

// TestRunCellsRemote: the coordinator side blocks on every cell at
// once, keeps the duration each worker measured, and a cancel ends the
// fan-out with the context's error.
func TestRunCellsRemote(t *testing.T) {
	const n = 16
	r := &barrierRunner{n: n, all: make(chan struct{})}
	var mu sync.Mutex
	done := map[int]time.Duration{}
	opt := scenario.RunOptions{Remote: r, OnCellDone: func(i int, d time.Duration) {
		mu.Lock()
		done[i] = d
		mu.Unlock()
	}}
	rows, durs, err := runRemoteCells(opt, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		want := time.Duration(i+1) * time.Millisecond
		if durs[i] != want || done[i] != want {
			t.Fatalf("cell %d: duration %v, progress %v, want the worker's %v", i, durs[i], done[i], want)
		}
		if fmt.Sprint(rows[i]) != fmt.Sprintf("[[%d]]", i) {
			t.Fatalf("cell %d: rows %v", i, rows[i])
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	r = &barrierRunner{n: n, all: make(chan struct{}), hold: true}
	go func() {
		<-r.all
		cancel()
	}()
	if _, _, err := runRemoteCells(scenario.RunOptions{Remote: r, Context: ctx}, 0, n); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
