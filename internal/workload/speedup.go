package workload

import (
	"fmt"
	"math"
)

// SpeedupModel prices the execution time of a task on p processors given
// its sequential time. Implementations must return positive times for
// p >= 1. The PT model of the paper folds all communication costs into
// this per-task penalty (§4: "communications are considered by a global
// penalty factor").
type SpeedupModel interface {
	// Time returns the execution time of a task of sequential duration
	// seq on p processors.
	Time(seq float64, p int) float64
	// Name identifies the model in traces and experiment tables.
	Name() string
}

// Linear is the ideal (communication-free) model: time = seq / p.
type Linear struct{}

// Time implements SpeedupModel.
func (Linear) Time(seq float64, p int) float64 { return seq / float64(p) }

// Name implements SpeedupModel.
func (Linear) Name() string { return "linear" }

// Amdahl is the classical Amdahl model with sequential fraction Alpha:
// time = seq * (Alpha + (1-Alpha)/p). Monotone for Alpha in [0, 1].
type Amdahl struct {
	Alpha float64
}

// Time implements SpeedupModel.
func (a Amdahl) Time(seq float64, p int) float64 {
	return seq * (a.Alpha + (1-a.Alpha)/float64(p))
}

// Name implements SpeedupModel.
func (a Amdahl) Name() string { return fmt.Sprintf("amdahl(%.2f)", a.Alpha) }

// PowerLaw models sub-linear speedup: time = seq / p^Sigma with
// Sigma in (0, 1]. Sigma = 1 is linear speedup. Monotone for Sigma ≤ 1.
type PowerLaw struct {
	Sigma float64
}

// Time implements SpeedupModel.
func (m PowerLaw) Time(seq float64, p int) float64 {
	return seq / math.Pow(float64(p), m.Sigma)
}

// Name implements SpeedupModel.
func (m PowerLaw) Name() string { return fmt.Sprintf("powerlaw(%.2f)", m.Sigma) }

// MakeTable materializes the execution-time table of a model for
// p = 1..maxProcs, clamping to enforce time-monotony. The resulting table
// can be assigned to Job.Times to freeze the job's profile.
//
// The two models the generators draw get a loop over the concrete type,
// so Time is a direct (inlined) call instead of an interface call per
// entry; the expression evaluated is the method's own, and every other
// model takes the interface loop (TestMakeTableTypedMatchesGeneric).
// What is left for a power-law job is one math.Pow per entry.
func MakeTable(model SpeedupModel, seq float64, maxProcs int) []float64 {
	table := make([]float64, maxProcs)
	switch m := model.(type) {
	case Amdahl:
		for i := range table {
			table[i] = m.Time(seq, i+1)
		}
	case PowerLaw:
		for i := range table {
			table[i] = m.Time(seq, i+1)
		}
	default:
		for i := range table {
			table[i] = model.Time(seq, i+1)
		}
	}
	best := math.Inf(1)
	for i, t := range table {
		if t < best {
			best = t
		}
		table[i] = best
	}
	return table
}
