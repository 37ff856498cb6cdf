package platform

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
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
	d := demandOf(intervals)
	defer d.Release()
	_, err := sweep(d.evs, func(i int, start bool) error {
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

// Demand is a set of processor demands over half-open time windows,
// added one at a time, for callers that hold their windows in another
// shape than []Interval. Its peak is read by the one capacity sweep.
type Demand struct {
	evs []event
	n   int32 // windows added so far, empty ones included
}

// demands holds released Demands, so that a warm sweep allocates nothing.
var demands = sync.Pool{New: func() any { return new(Demand) }}

// NewDemand returns an empty Demand with room for the given number of
// windows. Release gives it back for reuse once its peak is read.
func NewDemand(windows int) *Demand {
	d := demands.Get().(*Demand)
	d.evs, d.n = slices.Grow(d.evs[:0], 2*windows), 0
	return d
}

// Release returns d for reuse; d must not be used after.
func (d *Demand) Release() { demands.Put(d) }

// Add adds count processors held over [start, end). Windows are indexed
// in the order they are added; one with no processors or no length holds
// nothing.
func (d *Demand) Add(start, end float64, count int) {
	if count > 0 && end > start {
		d.evs = append(d.evs, event{start, d.n, int32(count)}, event{end, d.n, -int32(count)})
	}
	d.n++
}

// Peak returns the maximum simultaneous demand of the windows under the
// sweep's tie rule.
func (d *Demand) Peak() int {
	peak, _ := sweep(d.evs, nil)
	return peak
}

// sweep is the one capacity sweep behind every validity check. It sorts
// the events on time alone; the events within sweepEps of a group's
// first event form one group, so the groups do not depend on how equal
// times were ordered. Its tie rule: every end of a group is applied
// before any of its starts, so intervals that touch up to float rounding
// do not overlap. The peak is the largest demand right after a start,
// which is the demand after a whole group, so a call without visit reads
// each group's sum. visit, when non-nil, sees each event of a group in
// the order ends first, then time, then index (the order a sort on all
// three keys would give); its first error stops the sweep.
func sweep(evs []event, visit func(i int, start bool) error) (peak int, err error) {
	slices.SortFunc(evs, func(a, b event) int {
		if a.t < b.t {
			return -1
		}
		if a.t > b.t {
			return 1
		}
		return 0
	})
	cur := 0
	for g := 0; g < len(evs); {
		t0, eps := evs[g].t, sweepEps(evs[g].t)
		end := g + 1
		for end < len(evs) && evs[end].t-t0 <= eps {
			end++
		}
		group := evs[g:end]
		g = end
		if visit == nil {
			for _, e := range group {
				cur += int(e.d)
			}
			peak = max(peak, cur)
			continue
		}
		if len(group) > 1 {
			slices.SortFunc(group, func(a, b event) int {
				if (a.d > 0) != (b.d > 0) {
					if b.d > 0 {
						return -1
					}
					return 1
				}
				return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.i, b.i))
			})
		}
		for _, e := range group {
			cur += int(e.d)
			peak = max(peak, cur)
			if err := visit(int(e.i), e.d > 0); err != nil {
				return peak, err
			}
		}
	}
	return peak, nil
}

// PeakDemand returns the maximum simultaneous processor demand of the
// intervals under the sweep's tie rule.
func PeakDemand(intervals []Interval) int {
	d := demandOf(intervals)
	defer d.Release()
	return d.Peak()
}

// demandOf returns the intervals as a Demand, interval i as window i.
func demandOf(intervals []Interval) *Demand {
	d := NewDemand(len(intervals))
	for _, iv := range intervals {
		d.Add(iv.Start, iv.End, iv.Count)
	}
	return d
}
