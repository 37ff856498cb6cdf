package lowerbound

import (
	"math"
	"sort"

	"repro/internal/workload"
)

// The bounds as they stood before the bracketed bisection and the
// pdqsort call, kept verbatim as the differential reference:
// TestBoundsMatchReference and FuzzCmaxDual compare the product forms
// with these bit for bit. Nothing here is product code. dualFeasible,
// the plain §4.1 feasibility test, also serves TestDualMinimalityProperty.

// dualFeasible reports whether the guess λ passes the dual-approximation
// feasibility test of §4.1: every job has an allocation meeting λ, and
// the sum of the cheapest such allocations fits in the area λ·m.
func dualFeasible(costs []workload.Cost, m int, lambda float64) bool {
	var work float64
	bound := lambda * float64(m)
	for i := range costs {
		w := costs[i].MinWorkUnder(lambda)
		if math.IsInf(w, 0) {
			return false
		}
		work += w
		if work > bound*(1+1e-12) {
			return false
		}
	}
	return true
}

// referenceCmaxDualOf is the old CmaxDualOf.
func referenceCmaxDualOf(costs []workload.Cost, m int) float64 {
	if len(costs) == 0 {
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
	if dualFeasible(costs, m, lo) {
		return lo
	}
	hi := critical + area
	for !dualFeasible(costs, m, hi) {
		// Degenerate profiles (e.g. min-work allocation slower than λ):
		// widen until feasible. Doubling terminates because at λ ≥ max
		// sequential time the cheapest allocation is unconstrained.
		hi *= 2
		if math.IsInf(hi, 0) {
			return lo
		}
	}
	for i := 0; i < 100 && (hi-lo) > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if dualFeasible(costs, m, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// referenceSumWeightedCompletionOf is the old SumWeightedCompletionOf.
func referenceSumWeightedCompletionOf(costs []workload.Cost, m int) float64 {
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
	// Stays sort.Slice: equal ratios tie, and pdqsort's permutation of
	// ties decides the float order of the sums below.
	sort.Slice(items, func(a, b int) bool {
		wa, wb := items[a].weight, items[b].weight
		if wa > 0 && wb > 0 {
			return items[a].size*wb < items[b].size*wa
		}
		return wa > wb
	})
	var clock, squashed float64
	for _, it := range items {
		clock += it.size
		squashed += it.weight * clock
	}
	return math.Max(squashed, perJob)
}
