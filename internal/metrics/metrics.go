// Package metrics implements the optimization criteria catalogue of §3 of
// the paper: makespan, (weighted) sum of completion times, mean and
// maximum stretch, tardiness variants, throughput and utilization. All
// criteria operate on completion records so that both static schedules
// and discrete-event simulations can be scored identically.
package metrics

import (
	"fmt"
	"math"

	"repro/internal/workload"
)

// Completion records the outcome of one job.
type Completion struct {
	Job   *workload.Job
	Start float64
	End   float64
	// Procs is the number of processors the job ran on.
	Procs int
}

// Flow returns End - Release (the paper calls ΣCi - ri "mean stretch";
// in modern terminology this per-job quantity is the flow time).
func (c Completion) Flow() float64 { return c.End - c.Job.Release }

// Stretch returns flow time normalized by the job's best possible
// execution time on the platform width m (slowdown). Jobs with zero
// minimal time return 0.
func (c Completion) Stretch(m int) float64 {
	t, _ := c.Job.MinTime(m)
	if t <= 0 || math.IsInf(t, 0) {
		return 0
	}
	return c.Flow() / t
}

// Tardiness returns max(0, End - DueDate), or 0 when the job has no due
// date (DueDate < 0).
func (c Completion) Tardiness() float64 {
	if c.Job.DueDate < 0 {
		return 0
	}
	if d := c.End - c.Job.DueDate; d > 0 {
		return d
	}
	return 0
}

// BestEffortStats aggregates the best-effort (grid campaign) activity
// of one cluster: the §5.2 semantics where grid tasks fill scheduling
// holes and are killed whenever local work needs their processors.
type BestEffortStats struct {
	Completed int
	Killed    int
	// Redistributed counts killed tasks that re-arrived on a cluster
	// after drifting back through the central stock (one count per
	// resubmission, so a task killed twice counts twice).
	Redistributed int
	DoneWork      float64 // reference-speed work completed
	WastedWork    float64 // reference-speed work lost to kills
}

// FaultStats aggregates fault-injection activity on one cluster: node
// crashes/repairs and the local jobs killed and resubmitted when
// capacity disappears under them.
type FaultStats struct {
	// Crashes and Repairs count capacity-loss and capacity-return
	// events (a whole-cluster outage is one crash).
	Crashes int
	Repairs int
	// Requeues counts local jobs killed by a crash and resubmitted to
	// the tail of the queue (their wait-time penalty shows up in the
	// flow/stretch criteria because the release date is unchanged).
	Requeues int
	// LostWork is the reference-speed work destroyed by crashes
	// (procs × elapsed × speed per killed local job).
	LostWork float64
	// DownProcSeconds integrates unavailable capacity over time
	// (proc-seconds; the denominator of empirical availability).
	DownProcSeconds float64
}

// Report bundles every §3 criterion for one experiment run, plus the
// best-effort and fault counters of the run when the producer tracks
// them (cluster.Sim.Report fills them; NewReport leaves them zero).
type Report struct {
	N                     int
	Makespan              float64
	SumCompletion         float64
	SumWeightedCompletion float64
	MeanFlow              float64
	MaxFlow               float64
	MeanStretch           float64
	MaxStretch            float64
	LateCount             int
	SumTardiness          float64
	Utilization           float64
	BestEffort            BestEffortStats
	Faults                FaultStats
}

// NewReport evaluates all criteria at once on an m-processor platform:
// the records folded through an Accumulator in order. m = 0 means no
// platform width: stretch and utilization read 0.
func NewReport(cs []Completion, m int) Report {
	acc := Accumulator{m: m}
	for _, c := range cs {
		acc.Add(c)
	}
	return acc.Report()
}

// String renders the report as a compact single line.
func (r Report) String() string {
	return fmt.Sprintf("n=%d Cmax=%.4g ΣC=%.4g ΣwC=%.4g meanflow=%.4g util=%.2f%%",
		r.N, r.Makespan, r.SumCompletion, r.SumWeightedCompletion, r.MeanFlow, 100*r.Utilization)
}
