// Package des is a minimal deterministic discrete-event simulation
// kernel: a clock and a binary-heap event queue with stable FIFO
// tie-breaking at equal timestamps, plus a one-event feed slot beside
// the heap where a streamed simulation parks its next arrival (Feed), and
// calls deferred to the end of the current instant (Defer). The cluster
// and grid simulators are built on it.
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
	// deferred holds the calls Defer made for the end of the instant, and
	// spare the other batch's slice, which running a batch swaps in.
	deferred, spare []func()
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

// Defer runs fn, which must not be nil, once no event is pending at the
// current time, before the clock moves on. Deferred calls run in the order
// they were deferred, in batches: events that a batch schedules at the
// current time run before the next batch, which holds the calls deferred
// meanwhile. Deferring takes no heap entry and, once the two batches'
// slices have grown, allocates nothing.
func (s *Simulator) Defer(fn func()) { s.deferred = append(s.deferred, fn) }

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

// peek returns the earliest pending event's time and whether it waits in
// the feed slot, or ok=false when no event is pending.
func (s *Simulator) peek() (t float64, feed, ok bool) {
	if s.feedFirst() {
		return s.feed.time, true, true
	}
	if len(s.events) == 0 {
		return 0, false, false
	}
	return s.events[0].time, false, true
}

// pop removes and returns the earliest event's callback, from the feed
// slot if peek found it there, recycling its slot.
func (s *Simulator) pop(feed bool) func() {
	if feed {
		fn := s.feedFn
		s.feedFn = nil
		return fn
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
	return fn
}

// PeekTime returns the timestamp of the earliest pending event, or
// ok=false when the queue is empty. Wall-clock drivers use it to decide
// how long they may sleep before virtual time has to advance again.
func (s *Simulator) PeekTime() (t float64, ok bool) { t, _, ok = s.peek(); return t, ok }

// Pending returns the number of queued events, the feed slot's included,
// plus the deferred calls not yet run.
func (s *Simulator) Pending() int {
	n := len(s.events) + len(s.deferred)
	if s.feedFn != nil {
		n++
	}
	return n
}

// Run executes events in timestamp order, and each instant's deferred
// calls once its events have run, until nothing is pending or the event
// limit is hit (an error).
func (s *Simulator) Run() error { return s.dispatch(math.Inf(1)) }

// RunUntil executes events with timestamps <= t, and the deferred calls
// of their instants, then sets the clock to t, which must be finite and
// not before now.
func (s *Simulator) RunUntil(t float64) error {
	if t < s.clock {
		return fmt.Errorf("des: RunUntil(%v) before now (%v)", t, s.clock)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("des: RunUntil at non-finite time %v", t)
	}
	if err := s.dispatch(t); err != nil {
		return err
	}
	s.clock = t
	return nil
}

// dispatch is the one loop behind Run and RunUntil: it runs the events
// with timestamps <= until in (time, seq) order, and a batch of deferred
// calls whenever no event is left at the current time.
func (s *Simulator) dispatch(until float64) error {
	for {
		next, feed, ok := s.peek()
		if len(s.deferred) > 0 && (!ok || next > s.clock) {
			batch := s.deferred // calls deferred meanwhile gather in spare
			s.deferred = s.spare
			for _, fn := range batch {
				fn()
			}
			s.spare = batch[:0] // its calls stay referenced until overwritten
			continue
		}
		if !ok || next > until {
			return nil
		}
		if s.Limit > 0 && s.Processed >= s.Limit {
			return fmt.Errorf("des: event limit %d reached at t=%v", s.Limit, s.clock)
		}
		fn := s.pop(feed)
		s.clock = next
		s.Processed++
		fn()
	}
}
