// Package rigid implements scheduling algorithms for rigid Parallel Tasks
// (§2.2: jobs whose processor count is fixed a priori, the strip-packing
// view). It provides the resource-profile data structure shared by all
// queue-based policies, the FCFS and conservative-backfilling builders,
// priority list scheduling, and the FFDH shelf packer used both as a
// baseline and as a building block by the SMART and MRT implementations.
package rigid

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/platform"
)

// Profile is a piecewise-constant availability timeline over m processors.
// Segment i covers [times[i], times[i+1]) with avail[i] free processors;
// the last segment extends to +infinity. Profiles answer earliest-slot
// queries and record reservations, which is all a queue-based scheduler
// needs.
//
// The representation is kept canonical: no two adjacent segments have
// equal availability (Reserve/Release coalesce on the way out), so the
// segment count is bounded by the number of *distinct* availability
// changes, not by the number of operations performed.
type Profile struct {
	m     int
	times []float64
	avail []int
	// hint is the segment index of the last lookup. Scheduling access
	// patterns are strongly local (a reservation's start is queried, then
	// split, then re-queried), so segmentAt tries hint and its neighbours
	// before falling back to binary search.
	hint int
}

// NewProfile returns an all-free profile over m processors.
func NewProfile(m int) *Profile {
	if m <= 0 {
		panic(fmt.Sprintf("rigid: profile over %d processors", m))
	}
	return &Profile{m: m, times: []float64{0}, avail: []int{m}}
}

// NewProfileFromCalendar returns a profile with the calendar's
// reservations already carved out.
func NewProfileFromCalendar(cal *platform.Calendar) (*Profile, error) {
	p := NewProfile(cal.M())
	for _, r := range cal.Reservations() {
		if err := p.Reserve(r.Start, r.End-r.Start, r.Procs); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// segmentAt returns the index of the segment containing time t. t must be
// >= times[0] (always true for t >= 0 on untrimmed profiles).
func (p *Profile) segmentAt(t float64) int {
	n := len(p.times)
	h := p.hint
	if h >= n {
		h = n - 1
	}
	// Fast paths: t falls in the hinted segment, the next one, or the
	// previous one. These cover the overwhelming majority of lookups in
	// list scheduling and incremental simulation.
	if p.times[h] <= t {
		if h+1 >= n || t < p.times[h+1] {
			p.hint = h
			return h
		}
		if h+2 >= n || t < p.times[h+2] {
			p.hint = h + 1
			return h + 1
		}
	} else if h > 0 && p.times[h-1] <= t {
		p.hint = h - 1
		return h - 1
	}
	i := sort.Search(n, func(k int) bool { return p.times[k] > t }) - 1
	p.hint = i
	return i
}

// AvailableAt returns the free processor count at time t.
func (p *Profile) AvailableAt(t float64) int {
	if t < p.times[0] {
		return 0
	}
	return p.avail[p.segmentAt(t)]
}

// split inserts a breakpoint at t if absent and returns its segment index.
func (p *Profile) split(t float64) int {
	i := p.segmentAt(t)
	if p.times[i] == t {
		return i
	}
	p.insert(i+1, t, p.avail[i])
	p.hint = i + 1
	return i + 1
}

// insert puts a breakpoint at t with availability a at index k.
func (p *Profile) insert(k int, t float64, a int) {
	p.times = append(p.times, 0)
	p.avail = append(p.avail, 0)
	copy(p.times[k+1:], p.times[k:])
	copy(p.avail[k+1:], p.avail[k:])
	p.times[k] = t
	p.avail[k] = a
}

// coalesceAt removes breakpoint k when it separates two segments of equal
// availability, keeping the representation canonical.
func (p *Profile) coalesceAt(k int) {
	if k <= 0 || k >= len(p.times) || p.avail[k] != p.avail[k-1] {
		return
	}
	p.times = append(p.times[:k], p.times[k+1:]...)
	p.avail = append(p.avail[:k], p.avail[k+1:]...)
	if p.hint >= len(p.times) {
		p.hint = len(p.times) - 1
	}
}

// EarliestSlot returns the earliest start time >= ready at which procs
// processors are continuously free for dur. It returns an error if
// procs > m (never fits). dur must be positive.
//
// The search is a single forward sweep: the candidate start jumps past the
// first blocking segment and the sweep resumes there, so segments left of
// the final answer are visited at most once (amortized O(segments) per
// query instead of the former O(segments²) restart-from-scratch probing).
func (p *Profile) EarliestSlot(ready, dur float64, procs int) (float64, error) {
	if procs > p.m {
		return 0, fmt.Errorf("rigid: slot for %d procs on %d-proc profile", procs, p.m)
	}
	if dur <= 0 {
		return 0, fmt.Errorf("rigid: slot with non-positive duration %v", dur)
	}
	if procs <= 0 {
		return math.Max(ready, p.times[0]), nil
	}
	if ready < p.times[0] {
		ready = p.times[0]
	}
	i := p.segmentAt(ready)
	cand := ready
	for {
		end := cand + dur
		blocked := -1
		for k := i; k < len(p.times) && p.times[k] < end; k++ {
			if p.avail[k] < procs {
				blocked = k
				break
			}
		}
		if blocked < 0 {
			p.hint = i
			return cand, nil
		}
		if blocked+1 >= len(p.times) {
			return 0, fmt.Errorf("rigid: no slot for %d procs (profile saturated forever)", procs)
		}
		i = blocked + 1
		cand = p.times[i]
	}
}

// EarliestAvail returns the first time >= from at which at least procs
// processors are free, together with the surplus (availability minus
// procs) at that time. For a profile whose reservations all start at or
// before from — the persistent cluster profile — this is exactly EASY
// backfilling's shadow time and spare-processor count. The second result
// is -1 when the profile is saturated forever (cannot happen while every
// reservation is finite).
func (p *Profile) EarliestAvail(from float64, procs int) (float64, int) {
	if from < p.times[0] {
		from = p.times[0]
	}
	for i := p.segmentAt(from); i < len(p.times); i++ {
		if p.avail[i] >= procs {
			return math.Max(p.times[i], from), p.avail[i] - procs
		}
	}
	return math.Inf(1), -1
}

// Reserve removes procs processors during [start, start+dur). It returns
// an error if availability would go negative anywhere in the window.
func (p *Profile) Reserve(start, dur float64, procs int) error {
	if procs == 0 || dur == 0 {
		return nil
	}
	if procs < 0 || dur < 0 || start < p.times[0] {
		return fmt.Errorf("rigid: invalid reservation start=%v dur=%v procs=%d", start, dur, procs)
	}
	// One walk checks the window and finds where it ends: k stops at the
	// first breakpoint at or after end, or past the last segment — a NaN
	// end compares false, so the negated test walks it there, as split
	// would place it.
	end := start + dur
	i := p.segmentAt(start)
	k := i
	for ; k < len(p.times) && !(p.times[k] >= end); k++ {
		if p.avail[k] < procs {
			return fmt.Errorf("rigid: reservation of %d procs at [%v,%v) exceeds availability",
				procs, start, end)
		}
	}
	if j := p.split(start); j != i {
		i, k = j, k+1
	}
	if end == start {
		k = i // dur is below start's ulp: an empty window, no segment of its own
	} else if k == len(p.times) || p.times[k] != end {
		p.insert(k, end, p.avail[k-1])
	}
	p.hint = k
	for x := i; x < k; x++ {
		p.avail[x] -= procs
	}
	// Only the window edges can have become mergeable: interior
	// breakpoints separated distinct availabilities before the uniform
	// subtraction and still do. Coalesce k before i so indices stay valid.
	p.coalesceAt(k)
	p.coalesceAt(i)
	return nil
}

// Release returns procs processors during [start, start+dur) (undo of
// Reserve; availability may not exceed m).
func (p *Profile) Release(start, dur float64, procs int) error {
	if procs == 0 || dur == 0 {
		return nil
	}
	if procs < 0 || dur < 0 || start < p.times[0] {
		return fmt.Errorf("rigid: invalid release start=%v dur=%v procs=%d", start, dur, procs)
	}
	i := p.split(start)
	j := p.split(start + dur)
	for k := i; k < j; k++ {
		if p.avail[k]+procs > p.m {
			return fmt.Errorf("rigid: release of %d procs at t=%v exceeds capacity", procs, p.times[k])
		}
	}
	for k := i; k < j; k++ {
		p.avail[k] += procs
	}
	p.coalesceAt(j)
	p.coalesceAt(i)
	return nil
}

// TrimBefore discards history before t: segments that end at or before t
// are dropped and the first remaining segment is clamped to start at t.
// Afterwards the profile only answers queries for times >= t. The
// incremental cluster simulator calls this with the current clock so the
// persistent profile's size tracks the *running* job set, not the whole
// simulation history.
func (p *Profile) TrimBefore(t float64) {
	if t <= p.times[0] {
		return
	}
	if i := p.segmentAt(t); i > 0 {
		p.times = append(p.times[:0], p.times[i:]...)
		p.avail = append(p.avail[:0], p.avail[i:]...)
	}
	p.times[0] = t
	p.hint = 0
}

// profilePool recycles Clone backing arrays: what-if probing (one clone
// per scheduling decision) dominated allocation in the event simulators.
var profilePool = sync.Pool{New: func() any { return new(Profile) }}

// Clone returns a deep copy (used for what-if probing by backfilling).
// The copy is backed by pooled arrays; callers that are done with a clone
// should hand it back via Recycle to make the backing arrays reusable.
func (p *Profile) Clone() *Profile {
	c := profilePool.Get().(*Profile)
	c.m = p.m
	c.hint = p.hint
	c.times = append(c.times[:0], p.times...)
	c.avail = append(c.avail[:0], p.avail...)
	return c
}

// Recycle returns a profile to the clone pool. The profile must not be
// used afterwards. Recycling is optional — unrecycled clones are simply
// collected by the GC like before.
func (p *Profile) Recycle() {
	if p != nil {
		profilePool.Put(p)
	}
}

// Segments returns the breakpoint count (diagnostics / tests).
func (p *Profile) Segments() int { return len(p.times) }

// Breakpoints returns a copy of the segment start times (diagnostics /
// tests; the canonical-form and equivalence checks sample these).
func (p *Profile) Breakpoints() []float64 {
	return append([]float64(nil), p.times...)
}

// Start returns the earliest time the profile can answer queries for
// (0 for fresh profiles; later after TrimBefore).
func (p *Profile) Start() float64 { return p.times[0] }

// Reset re-arms p as an all-free profile over m processors, keeping its
// backing arrays: a workspace that builds many profiles in a row (the
// moldable two-shelf construction) owns one and resets it per attempt.
// The zero Profile may be Reset.
func (p *Profile) Reset(m int) {
	if m <= 0 {
		panic(fmt.Sprintf("rigid: profile over %d processors", m))
	}
	p.m = m
	p.times = append(p.times[:0], 0)
	p.avail = append(p.avail[:0], m)
	p.hint = 0
}
