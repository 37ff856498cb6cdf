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
// succeeds — this is interval graph coloring. An interval that starts and
// ends inside one tie group of the sweep holds nothing and gets no
// processors, like a zero-width one.
func Assign(m int, intervals []Interval) ([][]int, error) {
	if m <= 0 {
		return nil, fmt.Errorf("platform: Assign with m = %d", m)
	}
	for i, iv := range intervals {
		if iv.Count < 0 {
			return nil, fmt.Errorf("platform: interval %d has negative count", i)
		}
		if iv.End < iv.Start {
			return nil, fmt.Errorf("platform: interval %d has End < Start", i)
		}
	}
	free := make(intHeap, m)
	for i := range free {
		free[i] = i
	}
	heap.Init(&free)

	out := make([][]int, len(intervals))
	_, err := sweep(intervals, func(i int, start bool) error {
		if !start {
			if out[i] == nil {
				out[i] = []int{} // it starts later in this tie group: it holds nothing
			}
			for _, p := range out[i] {
				heap.Push(&free, p)
			}
			return nil
		}
		if out[i] != nil {
			return nil // it ended earlier in this tie group
		}
		iv := intervals[i]
		if iv.Count > free.Len() {
			return fmt.Errorf("platform: demand exceeds %d processors at t=%v", m, iv.Start)
		}
		procs := make([]int, iv.Count)
		for q := range procs {
			procs[q] = heap.Pop(&free).(int)
		}
		sort.Ints(procs)
		out[i] = procs
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sweepEps returns the tie tolerance for event sweeps at time t. Start
// and end instants that differ only by float rounding (e.g. (base+s)+d vs
// base+(s+d) after shifting a schedule) must be treated as simultaneous,
// with releases applied before grabs.
func sweepEps(t float64) float64 { return 1e-9 * (1 + math.Abs(t)) }

// event is one end (d < 0) or start (d > 0) of interval i, holding |d|
// processors.
type event struct {
	t float64
	i int32
	d int32
}

// sweep is the one capacity sweep behind every validity check. It visits
// the ends and starts of the intervals with a positive count and length
// in time order, ends before starts at equal times, then by index. Its tie
// rule: the events within sweepEps of a group's first event form one
// group, and every end of a group is applied before any of its starts, so
// intervals that touch up to float rounding do not overlap. visit, when
// non-nil, sees each event in that order; its first error stops the
// sweep. The peak is the largest demand right after a start.
func sweep(intervals []Interval, visit func(i int, start bool) error) (peak int, err error) {
	evs := make([]event, 0, 2*len(intervals))
	for i, iv := range intervals {
		if iv.Count > 0 && iv.End > iv.Start {
			evs = append(evs, event{iv.Start, int32(i), int32(iv.Count)}, event{iv.End, int32(i), -int32(iv.Count)})
		}
	}
	// A total order, so any sort gives this one sequence.
	slices.SortFunc(evs, func(a, b event) int {
		if a.t != b.t {
			if a.t < b.t {
				return -1
			}
			return 1
		}
		if (a.d > 0) != (b.d > 0) {
			if b.d > 0 {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.i, b.i)
	})
	cur := 0
	for g := 0; g < len(evs); {
		t0, eps := evs[g].t, sweepEps(evs[g].t)
		end := g + 1
		for end < len(evs) && evs[end].t-t0 <= eps {
			end++
		}
		for _, start := range [2]bool{false, true} {
			for _, e := range evs[g:end] {
				if (e.d > 0) != start {
					continue
				}
				cur += int(e.d)
				peak = max(peak, cur)
				if visit != nil {
					if err := visit(int(e.i), start); err != nil {
						return peak, err
					}
				}
			}
		}
		g = end
	}
	return peak, nil
}

// PeakDemand returns the maximum simultaneous processor demand of the
// intervals under the sweep's tie rule.
func PeakDemand(intervals []Interval) int {
	peak, _ := sweep(intervals, nil)
	return peak
}
