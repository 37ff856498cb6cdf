// Package lowerbound computes lower bounds on the optimal value of the
// §3 criteria for sets of rigid/moldable Parallel Tasks. Every experiment
// in the repository reports performance ratios against these bounds, the
// same methodology as the paper's Figure 2 (the true optimum being
// intractable, ratios are measured against a certified underestimate, so
// reported ratios are upper bounds on the true ratios).
package lowerbound

import (
	"math"
	"slices"

	"repro/internal/workload"
)

// CmaxArea returns the area (average work) bound: total minimal work
// divided by the number of processors. No schedule can beat it because m
// processors provide at most m·Cmax units of work.
func CmaxArea(jobs []*workload.Job, m int) float64 {
	return workload.TotalMinWork(jobs, m) / float64(m)
}

// dualProbe runs the dual-approximation feasibility test of §4.1 at the
// guess λ: every job has an allocation meeting λ, and the sum of the
// cheapest such allocations, taken in job order, fits in the area λ·m.
// It records each job's cheapest work in at and returns the verdict and
// how many jobs the test reached before it stopped.
//
// With a bracket (lo and hi non-nil), lo[i] and hi[i] hold job i's
// MinWorkUnder at a deadline at or below λ and one at or above it. A job
// whose two values are equal reads that value instead of searching:
// MinWorkUnder is monotone non-increasing in the deadline on both of its
// paths, so its value at λ lies between them, bit for bit.
func dualProbe(costs []workload.Cost, m int, lambda float64, lo, hi, at []float64) (ok bool, reached int) {
	var work float64
	bound := lambda * float64(m)
	for i := range costs {
		var w float64
		if lo != nil && lo[i] == hi[i] {
			w = lo[i]
		} else {
			w = costs[i].MinWorkUnder(lambda)
		}
		at[i] = w
		if math.IsInf(w, 0) {
			return false, i + 1
		}
		work += w
		if work > bound*(1+1e-12) {
			return false, i + 1
		}
	}
	return true, len(costs)
}

// CmaxDualOf returns the dual-approximation bound of the jobs whose cost
// summaries on m processors it is given: the smallest λ (up to relative
// precision 1e-9) such that the instance passes the feasibility test. In
// the optimal schedule of makespan C*, every job meets deadline C* and
// the packed work fits in C*·m, so C* is feasible and the smallest
// feasible λ is a valid lower bound. It dominates both CmaxArea and the
// critical-job bound (the largest minimal execution time).
func CmaxDualOf(costs []workload.Cost, m int) float64 {
	// No processors: the area term is not a number, so the doubling below
	// would never end. There is no bound to give.
	if len(costs) == 0 || m <= 0 {
		return 0
	}
	var work, critical float64
	for i := range costs {
		w, _ := costs[i].MinWork()
		work += w
		if t, _ := costs[i].MinTime(); !math.IsInf(t, 0) && t > critical {
			critical = t
		}
	}
	area := work / float64(m)
	lo := math.Max(area, critical)
	if lo == 0 {
		return 0
	}
	// Each job's MinWorkUnder at the bisection's lo, at its hi and at the
	// probe under way. A job the lo probe did not reach starts at +Inf,
	// its value at an infinitely early deadline.
	n := len(costs)
	scratch := make([]float64, 3*n)
	wLo, wHi, wAt := scratch[:n:n], scratch[n:2*n:2*n], scratch[2*n:]
	ok, reached := dualProbe(costs, m, lo, nil, nil, wLo)
	if ok {
		return lo
	}
	for i := reached; i < n; i++ {
		wLo[i] = math.Inf(1)
	}
	hi := critical + area
	for {
		// The doubling probes have no bracket yet, and lo does not move:
		// they leave the lo side alone.
		if ok, _ := dualProbe(costs, m, hi, nil, nil, wAt); ok {
			break
		}
		// Degenerate profiles (e.g. min-work allocation slower than λ):
		// widen until feasible. Doubling terminates because at λ ≥ max
		// sequential time the cheapest allocation is unconstrained.
		hi *= 2
		if math.IsInf(hi, 0) {
			return lo
		}
	}
	wHi, wAt = wAt, wHi
	for i := 0; i < 100 && (hi-lo) > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		ok, reached := dualProbe(costs, m, mid, wLo, wHi, wAt)
		if ok {
			hi = mid
			wHi, wAt = wAt, wHi
		} else {
			// Only the jobs the probe reached hold values at mid; the rest
			// keep their values at an earlier lo, still a valid bracket end.
			lo = mid
			copy(wLo[:reached], wAt[:reached])
		}
	}
	return hi
}

// Cmax returns the strongest available makespan lower bound, including
// the release-date term max_j (r_j + minTime_j).
func Cmax(jobs []*workload.Job, m int) float64 {
	return CmaxOf(workload.Costs(jobs, m), m)
}

// CmaxOf is Cmax for callers that already hold the jobs' cost summaries
// on m processors.
func CmaxOf(costs []workload.Cost, m int) float64 {
	lb := CmaxDualOf(costs, m)
	for i := range costs {
		t, _ := costs[i].MinTime()
		if math.IsInf(t, 0) {
			continue
		}
		if v := costs[i].Job.Release + t; v > lb {
			lb = v
		}
	}
	return lb
}

// SumWeightedCompletion returns a lower bound on ΣωiCi combining:
//
//  1. the squashed-area bound: in any schedule, if jobs are indexed by
//     completion order then m·C(k) ≥ Σ_{i≤k} minwork_i, so ΣwC is at
//     least the WSPT value of the single-machine instance with sizes
//     minwork_i/m (Smith's rule gives the minimizing order);
//  2. the per-job bound C_j ≥ r_j + minTime_j.
//
// The maximum of the two is returned. Works for rigid jobs too (their
// min work is the only work).
func SumWeightedCompletion(jobs []*workload.Job, m int) float64 {
	return SumWeightedCompletionOf(workload.Costs(jobs, m), m)
}

// SumWeightedCompletionOf is SumWeightedCompletion for callers that
// already hold the jobs' cost summaries on m processors (in the jobs'
// order: the sums below are accumulated in it).
func SumWeightedCompletionOf(costs []workload.Cost, m int) float64 {
	type item struct {
		size, weight float64
	}
	items := make([]item, 0, len(costs))
	var perJob float64
	for i := range costs {
		j := costs[i].Job
		w, _ := costs[i].MinWork()
		t, _ := costs[i].MinTime()
		if math.IsInf(t, 0) {
			continue // unschedulable on this width; contributes nothing
		}
		items = append(items, item{size: w / float64(m), weight: j.Weight})
		perJob += j.Weight * (j.Release + t)
	}
	// Smith's rule: sort by size/weight ascending (zero-weight jobs last;
	// they contribute nothing but still occupy the squashed machine).
	// Equal ratios tie, and the permutation of ties decides the float
	// order of the sums below. slices.SortFunc gives sort.Slice's
	// permutation: both are pdqsort generated from one template
	// (sort/gen_sort_variants.go), both pass bits.Len(n) as the limit,
	// and the code only ever tests cmp < 0, which is exactly the old less.
	slices.SortFunc(items, func(a, b item) int {
		if a.weight > 0 && b.weight > 0 {
			if a.size*b.weight < b.size*a.weight {
				return -1
			}
		} else if a.weight > b.weight {
			return -1
		}
		return 1
	})
	var clock, squashed float64
	for _, it := range items {
		clock += it.size
		squashed += it.weight * clock
	}
	return math.Max(squashed, perJob)
}
