package des

import (
	"fmt"
	"slices"
	"testing"
)

// logger returns a log and a maker of callbacks that append their name
// and the time they ran at to it.
func logger(s *Simulator) (*[]string, func(name string) func()) {
	var log []string
	return &log, func(name string) func() {
		return func() { log = append(log, fmt.Sprintf("%s@%v", name, s.Now())) }
	}
}

// requireLog fails unless the log is want.
func requireLog(t *testing.T, log *[]string, want ...string) {
	t.Helper()
	if !slices.Equal(*log, want) {
		t.Fatalf("ran %v, want %v", *log, want)
	}
}

// TestDeferRunsAfterTheInstant: a call deferred by the first event at 1
// runs after every event at 1, the one an event schedules at 1 during the
// instant included, and before the clock moves to 2. Deferred calls run
// in the order they were deferred.
func TestDeferRunsAfterTheInstant(t *testing.T) {
	s := New()
	log, ev := logger(s)
	_ = s.At(1, func() {
		ev("a")()
		s.Defer(ev("d1"))
	})
	_ = s.At(1, func() {
		ev("b")()
		s.Defer(ev("d2"))
		_ = s.At(1, ev("late"))
	})
	_ = s.At(1, func() {
		ev("c")()
		s.Defer(ev("d3"))
	})
	_ = s.At(2, ev("next"))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	requireLog(t, log, "a@1", "b@1", "c@1", "late@1", "d1@1", "d2@1", "d3@1", "next@2")
	if s.Processed != 5 {
		t.Fatalf("%d events processed, want 5: a deferred call is not an event", s.Processed)
	}
}

// TestDeferredEventRunsBeforeNextBatch: a deferred call that schedules an
// event at now and defers another call sees the event run after the rest
// of its own batch and before the call it deferred.
func TestDeferredEventRunsBeforeNextBatch(t *testing.T) {
	s := New()
	log, ev := logger(s)
	_ = s.At(3, func() {
		s.Defer(func() {
			ev("d1")()
			_ = s.At(3, func() {
				ev("e")()
				s.Defer(ev("d4"))
			})
			s.Defer(ev("d3"))
		})
		s.Defer(ev("d2"))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	requireLog(t, log, "d1@3", "d2@3", "e@3", "d3@3", "d4@3")
}

// TestDeferUnderRunUntil: RunUntil runs the deferred calls of every
// instant it reaches, the last one included, and a call deferred between
// two RunUntil calls, outside any event, runs at the current time before
// the clock moves on. Pending counts deferred calls.
func TestDeferUnderRunUntil(t *testing.T) {
	s := New()
	log, ev := logger(s)
	_ = s.At(1, func() { s.Defer(ev("d1")) })
	_ = s.At(3, ev("e3"))
	if err := s.RunUntil(1); err != nil {
		t.Fatal(err)
	}
	requireLog(t, log, "d1@1")
	s.Defer(ev("outside"))
	if n := s.Pending(); n != 2 {
		t.Fatalf("%d pending, want the event at 3 and the deferred call", n)
	}
	if err := s.RunUntil(2); err != nil {
		t.Fatal(err)
	}
	requireLog(t, log, "d1@1", "outside@1")
	if err := s.RunUntil(5); err != nil {
		t.Fatal(err)
	}
	requireLog(t, log, "d1@1", "outside@1", "e3@3")
	if s.Now() != 5 || s.Pending() != 0 {
		t.Fatalf("clock %v with %d pending, want 5 and none", s.Now(), s.Pending())
	}
}

// TestDeferBesideFeed: an arrival parked with Feed at the instant of heap
// events is one of the instant's events, and the call it defers runs
// after all of them.
func TestDeferBesideFeed(t *testing.T) {
	s := New()
	log, ev := logger(s)
	_ = s.At(2, ev("a"))
	_ = s.Feed(2, func() {
		ev("feed")()
		s.Defer(ev("d"))
	})
	_ = s.At(2, ev("b"))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	requireLog(t, log, "a@2", "feed@2", "b@2", "d@2")
}

// TestLimitCountsEventsOnly: the event limit counts events, not deferred
// calls; a run whose events each defer a call stops at the limit.
func TestLimitCountsEventsOnly(t *testing.T) {
	s := New()
	deferred := 0
	var tick func()
	tick = func() {
		s.Defer(func() { deferred++ })
		_ = s.After(1, tick)
	}
	_ = s.At(0, tick)
	s.Limit = 3
	if err := s.Run(); err == nil {
		t.Fatal("a run past its event limit returned no error")
	}
	if s.Processed != 3 || deferred != 3 {
		t.Fatalf("%d events and %d deferred calls at the limit, want 3 and 3", s.Processed, deferred)
	}
}

// TestDeferSteadyStateAllocatesNothing: once the two batches' slices have
// grown, deferring and running deferred calls allocates nothing.
func TestDeferSteadyStateAllocatesNothing(t *testing.T) {
	s := New()
	calls := 0
	d := func() { calls++ }
	ev := func() {
		s.Defer(d)
		s.Defer(d)
	}
	step := func() {
		_ = s.After(1, ev)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	step()
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("%v allocations per instant with two deferred calls, want 0", n)
	}
	if calls != 2*(2+101) {
		t.Fatalf("%d deferred calls ran, want %d", calls, 2*(2+101))
	}
}
