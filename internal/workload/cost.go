package workload

import "math"

// Cost is the moldable cost kernel: a constant-size summary of one job
// on an m-processor platform that answers the four per-job primitives
// of §4.1/§4.4 — minimal work, minimal time, the canonical allotment
// γ(j, t) and the cheapest allotment meeting a deadline — without
// rescanning the job's time table on every question.
//
// A caller builds one []Cost per (instance, m) with Costs and passes it
// down to the algorithms and bounds that take summaries (the *Of entry
// points of lowerbound, moldable and bicriteria), which read it and never
// write it, so cells of one instance may share it. It is deliberately
// not cached on the Job: jobs are shared by concurrent experiment cells
// that use different m, and freezing a clone rewrites MinProcs/MaxProcs.
type Cost struct {
	Job *Job

	hi       int // min(MaxProcs, m); below MinProcs when nothing fits
	minWork  float64
	minTime  float64
	minWorkP int
	minTimeP int
	// mono is set for table jobs whose times are non-increasing and
	// whose work is non-decreasing over [MinProcs, hi], compared exactly
	// (IsMonotone's tolerance would let a binary search disagree with the
	// scan). Gamma and MinWorkUnder then search Job.Times directly;
	// otherwise, and for Model-only jobs, they fall back to the scans.
	mono bool
}

// Cost scans the legal allocations of the job up to m processors once
// and returns their summary.
func (j *Job) Cost(m int) Cost {
	c := Cost{
		Job: j, hi: min(j.MaxProcs, m),
		minWork: math.Inf(1), minTime: math.Inf(1),
		mono: j.Times != nil,
	}
	prevT, prevW := math.Inf(1), math.Inf(-1)
	for p := j.MinProcs; p <= c.hi; p++ {
		var t float64 // TimeOn(p), minus its range check
		if j.Times != nil {
			t = j.Times[p-j.MinProcs]
		} else {
			t = j.Model.Time(j.SeqTime, p)
		}
		w := float64(p) * t
		if w < c.minWork {
			c.minWork, c.minWorkP = w, p
		}
		if t < c.minTime {
			c.minTime, c.minTimeP = t, p
		}
		// Negated so that a NaN entry clears the flag too.
		if !(t <= prevT) || !(w >= prevW) {
			c.mono = false
		}
		prevT, prevW = t, w
	}
	if c.minWorkP == 0 {
		c.minWork = 0
	}
	return c
}

// Costs builds the summary of every job for an m-processor platform.
func Costs(jobs []*Job, m int) []Cost {
	costs := make([]Cost, len(jobs))
	for i, j := range jobs {
		costs[i] = j.Cost(m)
	}
	return costs
}

// MinWork returns the minimum work over the legal allocations and the
// smallest processor count achieving it, or (0, 0) if none fits.
func (c *Cost) MinWork() (work float64, procs int) { return c.minWork, c.minWorkP }

// MinTime returns the minimum execution time over the legal allocations
// and the smallest processor count achieving it, or (+Inf, 0) if none
// fits.
func (c *Cost) MinTime() (t float64, procs int) { return c.minTime, c.minTimeP }

// Gamma returns the canonical allotment γ(j, t): the smallest legal
// processor count whose execution time is at most t, or 0 if none
// exists. This is the allotment primitive of the MRT dual-approximation
// (§4.1): among the allocations meeting deadline t, the smallest one
// minimizes work for monotone jobs.
func (c *Cost) Gamma(t float64) int {
	j := c.Job
	if !c.mono {
		return j.gammaScan(t, c.hi)
	}
	// First p in [MinProcs, hi] with Times[p-MinProcs] <= t; MakeTable
	// clamps, so plateaus are common and the first index on one is wanted.
	lo, hi := j.MinProcs, c.hi+1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if j.Times[mid-j.MinProcs] <= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo > c.hi {
		return 0
	}
	return lo
}

// MinWorkUnder returns the minimal work among the legal allocations
// whose execution time is at most deadline, or +Inf if none meets it.
// Monotone non-increasing in deadline by construction, which keeps the
// dual bound's bisection sound even for non-monotone profiles.
func (c *Cost) MinWorkUnder(deadline float64) float64 {
	if !c.mono {
		return c.Job.minWorkUnderScan(deadline, c.hi)
	}
	p := c.Gamma(deadline)
	if p == 0 {
		return math.Inf(1)
	}
	return float64(p) * c.Job.Times[p-c.Job.MinProcs]
}

// gammaScan is Gamma for arbitrary profiles: the first p ≤ hi meeting t.
func (j *Job) gammaScan(t float64, hi int) int {
	for p := j.MinProcs; p <= hi; p++ {
		if j.TimeOn(p) <= t {
			return p
		}
	}
	return 0
}

// minWorkUnderScan is MinWorkUnder for arbitrary profiles.
func (j *Job) minWorkUnderScan(deadline float64, hi int) float64 {
	best := math.Inf(1)
	for p := j.MinProcs; p <= hi; p++ {
		if j.TimeOn(p) <= deadline {
			if w := j.WorkOn(p); w < best {
				best = w
			}
		}
	}
	return best
}
