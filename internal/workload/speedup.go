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

// CommPenalty is the paper's global-penalty view made concrete: perfect
// parallelism plus a per-processor coordination overhead,
// time = seq/p + Overhead * (p-1). It is monotone in time only while the
// overhead term stays small; the Monotone wrapper below restores the
// monotone-task assumption where needed.
type CommPenalty struct {
	Overhead float64
}

// Time implements SpeedupModel.
func (c CommPenalty) Time(seq float64, p int) float64 {
	return seq/float64(p) + c.Overhead*float64(p-1)
}

// Name implements SpeedupModel.
func (c CommPenalty) Name() string { return fmt.Sprintf("commpenalty(%.3g)", c.Overhead) }

// Downey is a simplified version of Downey's speedup model, parameterized
// by the average parallelism A and the variance parameter Sigma, the
// standard synthetic model for moldable supercomputer jobs.
//
// For Sigma <= 1 (low variance):
//
//	S(p) = A*p / (A + Sigma/2*(p-1))              for 1 <= p <= A
//	S(p) = A*p / (Sigma*(A-1/2) + p*(1-Sigma/2))  for A <= p <= 2A-1
//	S(p) = A                                      for p >= 2A-1
//
// For Sigma >= 1 (high variance):
//
//	S(p) = p*A*(Sigma+1) / (Sigma*(p+A-1) + A)  for 1 <= p <= A+A*Sigma-Sigma
//	S(p) = A                                    otherwise
type Downey struct {
	A     float64
	Sigma float64
}

// speedup returns Downey's S(p).
func (d Downey) speedup(p int) float64 {
	pf := float64(p)
	a, s := d.A, d.Sigma
	if a <= 1 {
		return 1
	}
	var sp float64
	if s <= 1 {
		switch {
		case pf <= a:
			sp = a * pf / (a + s/2*(pf-1))
		case pf <= 2*a-1:
			sp = a * pf / (s*(a-0.5) + pf*(1-s/2))
		default:
			sp = a
		}
	} else {
		if pf <= a+a*s-s {
			sp = pf * a * (s + 1) / (s*(pf+a-1) + a)
		} else {
			sp = a
		}
	}
	if sp < 1 {
		sp = 1
	}
	if sp > pf {
		sp = pf
	}
	return sp
}

// Time implements SpeedupModel.
func (d Downey) Time(seq float64, p int) float64 { return seq / d.speedup(p) }

// Name implements SpeedupModel.
func (d Downey) Name() string { return fmt.Sprintf("downey(A=%.1f,s=%.2f)", d.A, d.Sigma) }

// Monotone wraps a model and enforces the monotone-task assumption: time
// non-increasing in p (by taking the running minimum over processor
// counts) and therefore work non-decreasing wherever the base model is
// convex enough. The moldable algorithms of §4 assume monotony.
type Monotone struct {
	Base SpeedupModel
}

// Time implements SpeedupModel. The running minimum is computed from p=1,
// which costs O(p) per call; callers on hot paths should materialize a
// Times table with MakeTable instead.
func (m Monotone) Time(seq float64, p int) float64 {
	best := math.Inf(1)
	for q := 1; q <= p; q++ {
		if t := m.Base.Time(seq, q); t < best {
			best = t
		}
	}
	return best
}

// Name implements SpeedupModel.
func (m Monotone) Name() string { return "monotone(" + m.Base.Name() + ")" }

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
