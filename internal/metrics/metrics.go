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

// Makespan returns max End over the records (0 when empty) — Cmax in §3.
func Makespan(cs []Completion) float64 {
	var mk float64
	for _, c := range cs {
		if c.End > mk {
			mk = c.End
		}
	}
	return mk
}

// SumCompletion returns ΣCi.
func SumCompletion(cs []Completion) float64 {
	var s float64
	for _, c := range cs {
		s += c.End
	}
	return s
}

// SumWeightedCompletion returns ΣωiCi.
func SumWeightedCompletion(cs []Completion) float64 {
	var s float64
	for _, c := range cs {
		s += c.Job.Weight * c.End
	}
	return s
}

// SumFlow returns Σ(Ci - ri), the paper's "mean stretch" numerator.
func SumFlow(cs []Completion) float64 {
	var s float64
	for _, c := range cs {
		s += c.Flow()
	}
	return s
}

// MeanFlow returns SumFlow / n (0 when empty).
func MeanFlow(cs []Completion) float64 {
	if len(cs) == 0 {
		return 0
	}
	return SumFlow(cs) / float64(len(cs))
}

// MaxFlow returns the maximum Ci - ri ("the longest waiting time for a
// user" in §3's maximum-stretch sense, unnormalized).
func MaxFlow(cs []Completion) float64 {
	var mx float64
	for _, c := range cs {
		if f := c.Flow(); f > mx {
			mx = f
		}
	}
	return mx
}

// MaxStretch returns the maximum normalized stretch over the records.
func MaxStretch(cs []Completion, m int) float64 {
	var mx float64
	for _, c := range cs {
		if s := c.Stretch(m); s > mx {
			mx = s
		}
	}
	return mx
}

// MeanStretch returns the average normalized stretch.
func MeanStretch(cs []Completion, m int) float64 {
	if len(cs) == 0 {
		return 0
	}
	var s float64
	for _, c := range cs {
		s += c.Stretch(m)
	}
	return s / float64(len(cs))
}

// LateCount returns the number of tardy jobs.
func LateCount(cs []Completion) int {
	var n int
	for _, c := range cs {
		if c.Tardiness() > 0 {
			n++
		}
	}
	return n
}

// SumTardiness returns Σ max(0, Ci - di).
func SumTardiness(cs []Completion) float64 {
	var s float64
	for _, c := range cs {
		s += c.Tardiness()
	}
	return s
}

// Utilization returns the fraction of the m-processor area [0, makespan]
// that is covered by job execution. Empty records give 0.
func Utilization(cs []Completion, m int) float64 {
	mk := Makespan(cs)
	if mk <= 0 || m <= 0 {
		return 0
	}
	var area float64
	for _, c := range cs {
		area += float64(c.Procs) * (c.End - c.Start)
	}
	return area / (mk * float64(m))
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

// NewReport evaluates all criteria at once.
func NewReport(cs []Completion, m int) Report {
	return Report{
		N:                     len(cs),
		Makespan:              Makespan(cs),
		SumCompletion:         SumCompletion(cs),
		SumWeightedCompletion: SumWeightedCompletion(cs),
		MeanFlow:              MeanFlow(cs),
		MaxFlow:               MaxFlow(cs),
		MeanStretch:           MeanStretch(cs, m),
		MaxStretch:            MaxStretch(cs, m),
		LateCount:             LateCount(cs),
		SumTardiness:          SumTardiness(cs),
		Utilization:           Utilization(cs, m),
	}
}

// String renders the report as a compact single line.
func (r Report) String() string {
	return fmt.Sprintf("n=%d Cmax=%.4g ΣC=%.4g ΣwC=%.4g meanflow=%.4g util=%.2f%%",
		r.N, r.Makespan, r.SumCompletion, r.SumWeightedCompletion, r.MeanFlow, 100*r.Utilization)
}
