// Package des is a minimal deterministic discrete-event simulation
// kernel: a clock and a binary-heap event queue with stable FIFO
// tie-breaking at equal timestamps, plus a one-event feed slot beside
// the heap where a streamed simulation parks its next arrival (Feed).
// The cluster and grid simulators are built on it.
//
// The heap holds pointer-free eventRef values (time, seq, callback slot)
// and the callbacks live in a free-listed side table: sifting the heap
// then moves plain words with no GC write barriers and scheduling never
// boxes events through an interface, which together dominate the cost of
// simulator-heavy experiments.
package des

import (
	"fmt"
	"math"
)

// eventRef is one scheduled event as stored in the heap: deliberately
// pointer-free so heap maintenance is barrier-free memmove work. slot
// indexes the Simulator's callback table.
type eventRef struct {
	time float64
	seq  uint64 // insertion order, breaks ties deterministically
	slot int32
}

// eventHeap is a binary min-heap of eventRef ordered by (time, seq).
type eventHeap []eventRef

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if r := l + 1; r < n && h.less(r, l) {
			least = r
		}
		if !h.less(least, i) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Simulator owns the virtual clock and the pending event set.
type Simulator struct {
	clock  float64
	events eventHeap
	// fns holds the scheduled callbacks, indexed by eventRef.slot and
	// recycled through free once dispatched.
	fns  []func()
	free []int32
	// feed is the event Feed parked beside the heap (its slot unused),
	// pending while feedFn is not nil.
	feed   eventRef
	feedFn func()
	seq    uint64
	// Processed counts executed events (diagnostics / runaway guards).
	Processed uint64
	// Limit aborts Run after this many events (0 = no limit). A safety
	// valve against non-terminating simulations in tests.
	Limit uint64
}

// New returns a simulator with the clock at 0.
func New() *Simulator { return &Simulator{} }

// NewWithCapacity returns a simulator whose event heap and callback
// table are pre-sized for n pending events, avoiding the doubling
// reallocations of a cold heap when the expected event volume is known
// up front (e.g. one submission event per job).
func NewWithCapacity(n int) *Simulator {
	if n < 0 {
		n = 0
	}
	return &Simulator{
		events: make(eventHeap, 0, n),
		fns:    make([]func(), 0, n),
	}
}

// Now returns the current virtual time.
func (s *Simulator) Now() float64 { return s.clock }

// check refuses an event at t that At would not schedule.
func (s *Simulator) check(t float64, fn func()) error {
	if t < s.clock {
		return fmt.Errorf("des: scheduling at %v before now (%v)", t, s.clock)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("des: scheduling at non-finite time %v", t)
	}
	if fn == nil {
		return fmt.Errorf("des: nil event callback")
	}
	return nil
}

// At schedules fn at absolute time t. Scheduling in the past is an error.
func (s *Simulator) At(t float64, fn func()) error {
	if err := s.check(t, fn); err != nil {
		return err
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
		s.fns[slot] = fn
	} else {
		slot = int32(len(s.fns))
		s.fns = append(s.fns, fn)
	}
	s.events = append(s.events, eventRef{time: t, seq: s.seq, slot: slot})
	s.seq++
	s.events.siftUp(len(s.events) - 1)
	return nil
}

// Feed schedules fn at t like At: it takes the next sequence number and
// is dispatched in the same (time, seq) order. The event waits in a
// one-deep slot beside the heap instead, costing no push or pop — a
// stream that keeps one pending arrival (cluster.Sim.Stream) feeds it
// here. With the slot already held, as when two streams share one
// Simulator, Feed is At.
func (s *Simulator) Feed(t float64, fn func()) error {
	if s.feedFn != nil {
		return s.At(t, fn)
	}
	if err := s.check(t, fn); err != nil {
		return err
	}
	s.feed = eventRef{time: t, seq: s.seq}
	s.feedFn = fn
	s.seq++
	return nil
}

// After schedules fn after delay d (d >= 0).
func (s *Simulator) After(d float64, fn func()) error {
	if d < 0 {
		return fmt.Errorf("des: negative delay %v", d)
	}
	return s.At(s.clock+d, fn)
}

// feedFirst reports whether the feed slot holds the earliest pending
// event.
func (s *Simulator) feedFirst() bool {
	if s.feedFn == nil {
		return false
	}
	if len(s.events) == 0 {
		return true
	}
	top := s.events[0]
	return s.feed.time < top.time || s.feed.time == top.time && s.feed.seq < top.seq
}

// pop removes and returns the earliest event's time and callback,
// recycling its slot. Some event must be pending.
func (s *Simulator) pop() (float64, func()) {
	if s.feedFirst() {
		fn := s.feedFn
		s.feedFn = nil
		return s.feed.time, fn
	}
	top := s.events[0]
	n := len(s.events) - 1
	s.events[0] = s.events[n]
	s.events = s.events[:n]
	if n > 1 {
		s.events.siftDown(0)
	}
	fn := s.fns[top.slot]
	s.fns[top.slot] = nil
	s.free = append(s.free, top.slot)
	return top.time, fn
}

// PeekTime returns the timestamp of the earliest pending event, or
// ok=false when the queue is empty. Wall-clock drivers use it to decide
// how long they may sleep before virtual time has to advance again.
func (s *Simulator) PeekTime() (t float64, ok bool) {
	if s.feedFirst() {
		return s.feed.time, true
	}
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].time, true
}

// Pending returns the number of queued events, the feed slot's included.
func (s *Simulator) Pending() int {
	if s.feedFn != nil {
		return len(s.events) + 1
	}
	return len(s.events)
}

// Run executes events in timestamp order until the queue drains or the
// event limit is hit (an error).
func (s *Simulator) Run() error {
	for s.Pending() > 0 {
		if s.Limit > 0 && s.Processed >= s.Limit {
			return fmt.Errorf("des: event limit %d reached at t=%v", s.Limit, s.clock)
		}
		t, fn := s.pop()
		s.clock = t
		s.Processed++
		fn()
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then sets the clock to
// t, which must be finite and not before now.
func (s *Simulator) RunUntil(t float64) error {
	if t < s.clock {
		return fmt.Errorf("des: RunUntil(%v) before now (%v)", t, s.clock)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("des: RunUntil at non-finite time %v", t)
	}
	for next, ok := s.PeekTime(); ok && next <= t; next, ok = s.PeekTime() {
		if s.Limit > 0 && s.Processed >= s.Limit {
			return fmt.Errorf("des: event limit %d reached at t=%v", s.Limit, s.clock)
		}
		et, fn := s.pop()
		s.clock = et
		s.Processed++
		fn()
	}
	s.clock = t
	return nil
}
