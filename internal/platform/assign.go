package platform

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Interval is a processor demand over a half-open time window. Assign
// turns a set of intervals into concrete processor IDs.
type Interval struct {
	Start, End float64
	Count      int
}

// intHeap is a min-heap of processor IDs.
type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Assign maps each interval to a concrete set of processor IDs in [0, m)
// such that no processor serves two overlapping intervals. Intervals are
// half-open, so an interval ending at t and one starting at t may share
// processors. Returns an error if at some instant total demand exceeds m.
//
// The assignment is the classic sweep: process interval starts in time
// order (ends released first at equal times) and grab the lowest-numbered
// free processors. Because demand never exceeds m, the greedy grab always
// succeeds — this is interval graph coloring.
func Assign(m int, intervals []Interval) ([][]int, error) {
	if m <= 0 {
		return nil, fmt.Errorf("platform: Assign with m = %d", m)
	}
	type event struct {
		t     float64
		start bool
		idx   int
	}
	events := make([]event, 0, 2*len(intervals))
	for i, iv := range intervals {
		if iv.Count < 0 {
			return nil, fmt.Errorf("platform: interval %d has negative count", i)
		}
		if iv.End < iv.Start {
			return nil, fmt.Errorf("platform: interval %d has End < Start", i)
		}
		if iv.Count == 0 || iv.End == iv.Start {
			continue // zero-width or zero-demand intervals get no processors
		}
		events = append(events, event{iv.Start, true, i}, event{iv.End, false, i})
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		if events[a].start != events[b].start {
			return !events[a].start // ends first
		}
		return events[a].idx < events[b].idx
	})

	free := make(intHeap, m)
	for i := range free {
		free[i] = i
	}
	heap.Init(&free)

	out := make([][]int, len(intervals))
	for i := 0; i < len(events); {
		groupEnd := i
		eps := sweepEps(events[i].t)
		for groupEnd < len(events) && events[groupEnd].t-events[i].t <= eps {
			groupEnd++
		}
		// Apply all ends in the group before any start, so hairline
		// float overlaps from shifted schedules do not spuriously
		// exhaust the free pool.
		for k := i; k < groupEnd; k++ {
			if !events[k].start {
				for _, p := range out[events[k].idx] {
					heap.Push(&free, p)
				}
			}
		}
		for k := i; k < groupEnd; k++ {
			e := events[k]
			if !e.start {
				continue
			}
			iv := intervals[e.idx]
			if iv.Count > free.Len() {
				return nil, fmt.Errorf("platform: demand exceeds %d processors at t=%v", m, e.t)
			}
			procs := make([]int, iv.Count)
			for q := range procs {
				procs[q] = heap.Pop(&free).(int)
			}
			sort.Ints(procs)
			out[e.idx] = procs
		}
		i = groupEnd
	}
	return out, nil
}

// sweepEps returns the tie tolerance for event sweeps at time t. Start
// and end instants that differ only by float rounding (e.g. (base+s)+d vs
// base+(s+d) after shifting a schedule) must be treated as simultaneous,
// with releases applied before grabs.
func sweepEps(t float64) float64 { return 1e-9 * (1 + math.Abs(t)) }

// PeakDemand returns the maximum simultaneous processor demand of the
// intervals (useful to size a platform or validate feasibility quickly).
// Events closer than a relative 1e-9 are coalesced, releases first.
func PeakDemand(intervals []Interval) int {
	type event struct {
		t float64
		d int
	}
	evs := make([]event, 0, 2*len(intervals))
	for _, iv := range intervals {
		if iv.Count == 0 || iv.End <= iv.Start {
			continue
		}
		evs = append(evs, event{iv.Start, iv.Count}, event{iv.End, -iv.Count})
	}
	// The comparator orders the whole struct, so tied events are
	// indistinguishable and any sort gives the same sequence.
	slices.SortFunc(evs, func(a, b event) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.d, b.d)
	})
	cur, peak := 0, 0
	for i := 0; i < len(evs); {
		groupEnd := i
		eps := sweepEps(evs[i].t)
		for groupEnd < len(evs) && evs[groupEnd].t-evs[i].t <= eps {
			groupEnd++
		}
		// Releases first within the group.
		for k := i; k < groupEnd; k++ {
			if evs[k].d < 0 {
				cur += evs[k].d
			}
		}
		for k := i; k < groupEnd; k++ {
			if evs[k].d > 0 {
				cur += evs[k].d
				if cur > peak {
					peak = cur
				}
			}
		}
		i = groupEnd
	}
	return peak
}
