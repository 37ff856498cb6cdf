package metrics

// The reference the Accumulator is held to: the §3 criteria as one loop
// each over a materialized slice, the way NewReport computed them before
// it became a fold through the Accumulator. Each loop performs the float
// operations of its criterion in record order, so the Accumulator must
// match it bit for bit.

// referenceReport evaluates every criterion by its own loop.
func referenceReport(cs []Completion, m int) Report {
	return Report{
		N:                     len(cs),
		Makespan:              refMakespan(cs),
		SumCompletion:         refSumCompletion(cs),
		SumWeightedCompletion: refSumWeightedCompletion(cs),
		MeanFlow:              refMeanFlow(cs),
		MaxFlow:               refMaxFlow(cs),
		MeanStretch:           refMeanStretch(cs, m),
		MaxStretch:            refMaxStretch(cs, m),
		LateCount:             refLateCount(cs),
		SumTardiness:          refSumTardiness(cs),
		Utilization:           refUtilization(cs, m),
	}
}

// refMakespan returns max End over the records (0 when empty) — Cmax in
// §3.
func refMakespan(cs []Completion) float64 {
	var mk float64
	for _, c := range cs {
		if c.End > mk {
			mk = c.End
		}
	}
	return mk
}

// refSumCompletion returns ΣCi.
func refSumCompletion(cs []Completion) float64 {
	var s float64
	for _, c := range cs {
		s += c.End
	}
	return s
}

// refSumWeightedCompletion returns ΣωiCi.
func refSumWeightedCompletion(cs []Completion) float64 {
	var s float64
	for _, c := range cs {
		s += c.Job.Weight * c.End
	}
	return s
}

// refSumFlow returns Σ(Ci - ri), the paper's "mean stretch" numerator.
func refSumFlow(cs []Completion) float64 {
	var s float64
	for _, c := range cs {
		s += c.Flow()
	}
	return s
}

// refMeanFlow returns refSumFlow / n (0 when empty).
func refMeanFlow(cs []Completion) float64 {
	if len(cs) == 0 {
		return 0
	}
	return refSumFlow(cs) / float64(len(cs))
}

// refMaxFlow returns the maximum Ci - ri.
func refMaxFlow(cs []Completion) float64 {
	var mx float64
	for _, c := range cs {
		if f := c.Flow(); f > mx {
			mx = f
		}
	}
	return mx
}

// refMaxStretch returns the maximum normalized stretch over the records.
func refMaxStretch(cs []Completion, m int) float64 {
	var mx float64
	for _, c := range cs {
		if s := c.Stretch(m); s > mx {
			mx = s
		}
	}
	return mx
}

// refMeanStretch returns the average normalized stretch.
func refMeanStretch(cs []Completion, m int) float64 {
	if len(cs) == 0 {
		return 0
	}
	var s float64
	for _, c := range cs {
		s += c.Stretch(m)
	}
	return s / float64(len(cs))
}

// refLateCount returns the number of tardy jobs.
func refLateCount(cs []Completion) int {
	var n int
	for _, c := range cs {
		if c.Tardiness() > 0 {
			n++
		}
	}
	return n
}

// refSumTardiness returns Σ max(0, Ci - di).
func refSumTardiness(cs []Completion) float64 {
	var s float64
	for _, c := range cs {
		s += c.Tardiness()
	}
	return s
}

// refUtilization returns the fraction of the m-processor area
// [0, makespan] covered by job execution. Empty records give 0.
func refUtilization(cs []Completion, m int) float64 {
	mk := refMakespan(cs)
	if mk <= 0 || m <= 0 {
		return 0
	}
	var area float64
	for _, c := range cs {
		area += float64(c.Procs) * (c.End - c.Start)
	}
	return area / (mk * float64(m))
}
