package metrics

// Accumulator computes the full §3 criteria Report in one pass over the
// completion stream, in O(1) memory: simulations feed every completion
// through Add as it happens and can ask for the Report at any point
// without retaining the records. It is the one implementation of the
// criteria: NewReport folds a slice through it, so fed the same
// completions in the same order the two reports are bit for bit equal.
//
// The platform width m is fixed at construction because stretch
// normalizes by the job's best execution time on m processors, which
// must be evaluated while the job is still live.
type Accumulator struct {
	m int

	n        int
	makespan float64
	sumC     float64
	sumWC    float64
	sumFlow  float64
	maxFlow  float64
	sumStr   float64
	maxStr   float64
	late     int
	sumTard  float64
	area     float64
}

// NewAccumulator returns an empty accumulator for an m-processor
// platform.
func NewAccumulator(m int) *Accumulator { return &Accumulator{m: m} }

// Add folds one completion into every criterion.
func (a *Accumulator) Add(c Completion) {
	a.n++
	if c.End > a.makespan {
		a.makespan = c.End
	}
	a.sumC += c.End
	a.sumWC += c.Job.Weight * c.End
	f := c.Flow()
	a.sumFlow += f
	if f > a.maxFlow {
		a.maxFlow = f
	}
	s := c.Stretch(a.m)
	a.sumStr += s
	if s > a.maxStr {
		a.maxStr = s
	}
	d := c.Tardiness()
	if d > 0 {
		a.late++
	}
	a.sumTard += d
	a.area += float64(c.Procs) * (c.End - c.Start)
}

// N returns the number of completions folded in so far.
func (a *Accumulator) N() int { return a.n }

// Report finalizes the criteria (O(1): two divisions and the
// utilization ratio).
func (a *Accumulator) Report() Report {
	rep := Report{
		N:                     a.n,
		Makespan:              a.makespan,
		SumCompletion:         a.sumC,
		SumWeightedCompletion: a.sumWC,
		MaxFlow:               a.maxFlow,
		MaxStretch:            a.maxStr,
		LateCount:             a.late,
		SumTardiness:          a.sumTard,
	}
	if a.n > 0 {
		rep.MeanFlow = a.sumFlow / float64(a.n)
		rep.MeanStretch = a.sumStr / float64(a.n)
	}
	if a.makespan > 0 && a.m > 0 {
		rep.Utilization = a.area / (a.makespan * float64(a.m))
	}
	return rep
}
