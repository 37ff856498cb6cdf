package des

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// feedScript drives one simulator through a random interleaving of At,
// Feed, RunUntil, PeekTime and Pending, drawn from seed; events schedule
// more events when they fire. It returns the log of dispatches and
// observations. With feed false every Feed becomes At, so the two logs
// must be equal. held counts Feeds made while the slot was
// already taken, parked those that took it.
func feedScript(seed uint64, feed bool) (log []string, held, parked int) {
	rng := stats.NewRNG(seed)
	s := New()
	ids := 0
	var schedule func(depth int)
	event := func(id, depth int) func() {
		return func() {
			log = append(log, fmt.Sprintf("%d@%v", id, s.Now()))
			if depth < 3 {
				for k := rng.Intn(3); k > 0; k-- {
					schedule(depth + 1)
				}
			}
		}
	}
	at := func(t float64, fn func()) {
		if err := s.At(t, fn); err != nil {
			panic(err)
		}
	}
	schedule = func(depth int) {
		t := s.Now() + float64(rng.Intn(4)) // coarse, so ties are common
		switch rng.Intn(2) {
		case 0:
			at(t, event(ids, depth))
			ids++
		case 1:
			if !feed {
				at(t, event(ids, depth))
			} else {
				if s.feedFn != nil {
					held++
				} else {
					parked++
				}
				if err := s.Feed(t, event(ids, depth)); err != nil {
					panic(err)
				}
			}
			ids++
		}
	}
	for range 40 {
		switch rng.Intn(5) {
		case 0, 1:
			schedule(0)
		case 2:
			next, ok := s.PeekTime()
			log = append(log, fmt.Sprintf("peek %v %v, %d pending", next, ok, s.Pending()))
		case 3:
			if err := s.RunUntil(s.Now() + float64(rng.Intn(5))); err != nil {
				panic(err)
			}
			log = append(log, fmt.Sprintf("until %v", s.Now()))
		case 4:
			schedule(3)
		}
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	return append(log, fmt.Sprintf("processed %d at %v", s.Processed, s.Now())), held, parked
}

// TestFeedDispatchesLikeAt: whatever the interleaving, an event fed into
// the slot beside the heap is dispatched exactly where At would have put
// it, a Feed with the slot held is At, and PeekTime, Pending, RunUntil
// and Processed see the slot.
func TestFeedDispatchesLikeAt(t *testing.T) {
	var held, parked int
	f := func(seed uint64) bool {
		got, h, p := feedScript(seed, true)
		want, _, _ := feedScript(seed, false)
		held, parked = held+h, parked+p
		if !slices.Equal(got, want) {
			t.Logf("seed %d:\n with Feed %v\n all At    %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if held == 0 || parked == 0 {
		t.Fatalf("%d Feeds found the slot held and %d parked an event: the scripts miss a case", held, parked)
	}
}
