package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// Determinism contract: a cell is a self-contained unit of work — it
// derives its own RNG stream from a seed assigned *before* the fan-out
// and never shares mutable state with other cells — and results are
// collected in cell-index order. Tables produced with Workers: N are
// therefore bit-identical to Workers: 1 for the same base seed.

// workers returns how many cells of a scale run at once: 1 for Workers
// 0 or 1 (sequential, the historical behaviour), else Workers capped at
// GOMAXPROCS.
func workers(s scenario.Scale) int {
	w := s.Workers
	if w <= 1 {
		return 1
	}
	if maxw := runtime.GOMAXPROCS(0); w > maxw {
		w = maxw
	}
	return w
}

// fanOut is the one loop every fan-out runs through: cell(0..n-1) on
// the caller's goroutine and min(w, n) − 1 more, each taking the next
// cell index from one counter. At w = 1 no goroutine starts, and the
// cells run in order on the caller's. It returns each cell's duration
// as the cell reported it, which OnCellDone also sees.
//
// The lowest failed index wins: a cell is skipped once a lower-index
// cell has failed, and a cell below a failure is never skipped, so the
// reported error does not depend on timing (at w = 1 the loop stops at
// the first failure). When opt.Context ends, the cells not yet started
// fail with its error and the cells in flight finish.
func fanOut(opt scenario.RunOptions, n, w int, cell func(i int) (time.Duration, error)) ([]time.Duration, error) {
	if opt.OnCellsStart != nil {
		opt.OnCellsStart(n)
	}
	durs := make([]time.Duration, n)
	errs := make([]error, n)
	var next atomic.Int64
	var low atomic.Int64 // the lowest failed index so far; n while none has
	low.Store(int64(n))
	work := func() {
		for {
			i := next.Add(1) - 1
			if i >= low.Load() {
				return
			}
			var err error
			if opt.Context != nil {
				err = opt.Context.Err()
			}
			if err == nil {
				durs[i], err = cell(int(i))
			}
			if err == nil {
				if opt.OnCellDone != nil {
					opt.OnCellDone(int(i), durs[i])
				}
				continue
			}
			errs[i] = err
			for l := low.Load(); i < l; l = low.Load() { // lower low to i
				if low.CompareAndSwap(l, i) {
					break
				}
			}
		}
	}
	var wg sync.WaitGroup
	for range min(w, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if l := low.Load(); l < int64(n) {
		return nil, errs[l]
	}
	return durs, nil
}

// runCells executes fn(0..n-1), workers(opt.Scale) at a time, and
// returns the results in cell-index order. A cancel is answered within
// roughly one cell's duration — the cooperative-cancellation contract
// of the /v1 run API. opt.OnCellDone fires on the goroutine that ran
// the cell and must be safe for concurrent use.
//
// Cells may themselves call runCells (CiGriTable fans each load level
// out into isolated/grid sub-runs); the outer workers then block in
// Wait, so runnable goroutines stay near the bound though momentary
// in-flight work can exceed it by the nesting factor.
func runCells[T any](opt scenario.RunOptions, n int, fn func(cell int) (T, error)) ([]T, error) {
	out, _, err := runCellsTimed(opt, n, fn)
	return out, err
}

// runCellsTimed is runCells plus the per-cell wall durations (indexed
// by cell). Each cell is timed exactly once, and the same measurement
// feeds both the OnCellDone progress event and the returned slice —
// so the /v1 event stream and the stored result cells agree to the
// nanosecond.
func runCellsTimed[T any](opt scenario.RunOptions, n int, fn func(cell int) (T, error)) ([]T, []time.Duration, error) {
	out := make([]T, n)
	durs, err := fanOut(opt, n, workers(opt.Scale), func(i int) (_ time.Duration, err error) {
		t0 := time.Now()
		out[i], err = callCell(fn, i)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, durs, nil
}

// callCell runs one cell, turning a panic into that cell's error. At
// w > 1 a cell may run on a goroutine no caller can recover, so without
// this one poison cell would take the whole process down (a daemon, or
// every fleet worker its lease is requeued to); as an error it is
// reported by the lowest-index rule like any other failure.
func callCell[T any](fn func(cell int) (T, error), i int) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("experiments: cell %d panicked: %v", i, p)
		}
	}()
	return fn(i)
}

// rtable accumulates the typed rows of one experiment table and
// finalizes them as a scenario.Result — the typed cells plus the text
// rendering derived from them by the one table renderer. The leading
// axes columns are the sweep coordinates; the rest are metrics.
type rtable struct {
	title   string
	axes    int
	headers []string
	cells   []scenario.Cell
}

// newTable starts a result table (the replacement for the historical
// direct trace.NewTable construction in kind runners).
func newTable(axes int, title string, headers ...string) *rtable {
	return &rtable{title: title, axes: axes, headers: headers}
}

// AddRow appends one typed row (rows assembled outside a cell carry no
// per-cell duration).
func (t *rtable) AddRow(vals ...any) { t.addCell(vals, 0) }

func (t *rtable) addCell(vals []any, d time.Duration) {
	t.cells = append(t.cells, scenario.Cell{
		Index: len(t.cells), Values: vals, Duration: d.Seconds(),
	})
}

// Result finalizes the table as the kind runner's Result.
func (t *rtable) Result() *scenario.Result {
	return scenario.NewCellResult(t.title, t.headers, t.axes, t.cells)
}

// runTableCells is the remoteable fan-out primitive: each cell's
// entire product is typed table rows, so a cell can execute in another
// process and ship its rows back. With opt.Remote set (the fleet
// coordinator side) every cell is dispatched through it at once —
// dispatch is I/O-bound waiting on workers, so the local Workers bound
// does not apply. With opt.Select set (the fleet worker side) only the
// leased cells execute, reporting rows through opt.OnCellRows. With
// neither, this is exactly runCellsTimed.
//
// The rule for kind runners that follows: anything built before the
// fan-out is built by every process of a fleet run — by the coordinator,
// which executes no cell, and again by each worker lease whichever cells
// it holds. So a paper-scale workload several cells share is a
// sync.OnceValue the cells call (heteroGridRun), built by the first cell
// that needs it. A stream of a few hundred jobs (≈ 0.2 ms) may stay
// eager, and has to when its error must surface before any cell runs
// (gridRun's generate). TestSelectNoneRunIsCheap and
// TestCoordinatorSideBuildsNothing hold every built-in kind to a
// 256 KiB prologue.
func runTableCells(opt scenario.RunOptions, n int, fn func(cell int) ([][]any, error)) ([][][]any, []time.Duration, error) {
	fanout := opt.NextFanout()
	if opt.Remote != nil {
		return runRemoteCells(opt, fanout, n)
	}
	if opt.Select != nil || opt.OnCellRows != nil {
		inner := fn
		fn = func(i int) ([][]any, error) {
			if opt.Select != nil && !opt.Select(fanout, i) {
				return nil, nil // not ours: contributes no rows
			}
			t0 := time.Now()
			rows, err := inner(i)
			if err == nil && opt.OnCellRows != nil {
				opt.OnCellRows(fanout, i, rows, time.Since(t0))
			}
			return rows, err
		}
	}
	return runCellsTimed(opt, n, fn)
}

// runRemoteCells ships one fan-out through the coordinator seam:
// fanOut with one goroutine per cell, so all n cells block on opt.Remote
// at once. Each cell keeps the duration its worker measured; results
// land in their slots, so reassembly order is cell order no matter
// which worker finished what when.
func runRemoteCells(opt scenario.RunOptions, fanout, n int) ([][][]any, []time.Duration, error) {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([][][]any, n)
	durs, err := fanOut(opt, n, n, func(i int) (d time.Duration, err error) {
		out[i], d, err = opt.Remote.RunCell(ctx, fanout, i)
		return d, err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, durs, nil
}

// runRowCells is the one-row-per-cell convenience over runTableCells:
// it runs the cells (locally or through the fleet seam) and appends
// each resulting row — with its wall duration — to the table in cell
// order. On the fleet worker side, skipped cells contribute nothing.
func runRowCells(t *rtable, opt scenario.RunOptions, n int, fn func(cell int) ([]any, error)) error {
	rows, durs, err := runTableCells(opt, n, func(i int) ([][]any, error) {
		row, err := fn(i)
		if err != nil {
			return nil, err
		}
		return [][]any{row}, nil
	})
	if err != nil {
		return err
	}
	for i, cellRows := range rows {
		for _, r := range cellRows {
			t.addCell(r, durs[i])
		}
	}
	return nil
}

// runMultiRowCells is the several-rows-per-cell variant (one cell per
// sweep coordinate, one row per policy inside it, say). Rows assembled
// from shared work carry no per-cell duration, matching the historical
// AddRow path.
func runMultiRowCells(t *rtable, opt scenario.RunOptions, n int, fn func(cell int) ([][]any, error)) error {
	rows, _, err := runTableCells(opt, n, fn)
	if err != nil {
		return err
	}
	for _, cellRows := range rows {
		for _, r := range cellRows {
			t.AddRow(r...)
		}
	}
	return nil
}
