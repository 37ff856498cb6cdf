package experiments

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/scenario"
)

// prologueBudget bounds what a kind runner may allocate outside its
// cells in a plain build. The eager streams of a few hundred jobs fit
// under it (the largest today: ablation-doubling-base 148 KiB,
// reservations 132, criteria 117, gridpolicies 58); one paper-scale
// shared workload is megabytes.
const prologueBudget = 256 << 10

// tableSpecs are the built-in table and ablation specs, whose paper-scale
// cells go through runTableCells. (fig2's series are not remoteable and
// run wherever the spec runs.)
func tableSpecs() []*scenario.Spec {
	var specs []*scenario.Spec
	for _, s := range scenario.Catalog() {
		if s.Group != scenario.GroupFigure {
			specs = append(specs, s)
		}
	}
	return specs
}

// allocatedBy returns the bytes the calling goroutine's run of fn
// allocated (the test is not parallel, so nothing else is running).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func checkPrologue(t *testing.T, opt scenario.RunOptions) {
	for _, spec := range tableSpecs() {
		var err error
		got := allocatedBy(func() { _, err = scenario.Run(spec, opt) })
		// The race detector allocates on its own account; the budget is
		// for plain builds.
		if err != nil {
			t.Errorf("%s: %v", spec.ID, err)
		} else if got > prologueBudget && !raceEnabled {
			t.Errorf("%s: a run that executes no cell allocated %d KiB (budget %d): something is built before the fan-out, see runTableCells",
				spec.ID, got>>10, prologueBudget>>10)
		}
	}
}

// TestSelectNoneRunIsCheap: a fleet worker whose lease holds none of a
// run's cells pays for none of the run's workloads, at paper scale, for
// every built-in kind.
func TestSelectNoneRunIsCheap(t *testing.T) {
	checkPrologue(t, scenario.RunOptions{Seed: 1, Select: func(int, int) bool { return false }})
}

// cannedCells answers every cell at once with no rows.
type cannedCells struct{}

func (cannedCells) RunCell(context.Context, int, int) ([][]any, time.Duration, error) {
	return nil, 0, nil
}

// TestCoordinatorSideBuildsNothing: the coordinator of a fleet run
// executes no cell, so it builds no workload either.
func TestCoordinatorSideBuildsNothing(t *testing.T) {
	checkPrologue(t, scenario.RunOptions{Seed: 1, Remote: cannedCells{}})
}
