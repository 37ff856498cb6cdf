package workload

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// settleAhead waits until the goroutine count is back to before: a
// producer that has handed its last fill over only has to return. Fewer is fine: a
// goroutine of an earlier test may still have been exiting when before
// was counted.
func settleAhead(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Stop, %d before NewAhead", n, before)
	}
}

// drainAhead takes items until Next reports the end or panics.
func drainAhead[T any](a *Ahead[T]) (items []T, panicked any) {
	defer func() { panicked = recover() }()
	for {
		v, ok := a.Next()
		if !ok {
			return items, nil
		}
		items = append(items, v)
	}
}

// TestAheadEndsAndPanicsAtEveryPosition: a producer that ends or panics
// at the first position, at the last of a batch, at the first of the
// next one or one past it (and, at size 1 024, at the last item of the
// 8-item first fill and the first of the next fill) yields every item
// before that position in order, then the end or its panic on the
// consumer's goroutine, and again on every later call; produce is never
// called again. calls is unsynchronized on purpose: under -race, reading
// it while the producer still runs fails the test.
func TestAheadEndsAndPanicsAtEveryPosition(t *testing.T) {
	type failure struct{ at int }
	for _, size := range []int{1, 3, 1024} {
		ats := []int{0, size - 1, size, size + 1}
		if size == 1024 {
			ats = append(ats, 7, 8)
		}
		for _, at := range ats {
			for _, panics := range []bool{false, true} {
				before := runtime.NumGoroutine()
				calls := 0
				a := NewAhead(func() (int, bool) {
					i := calls
					calls++
					switch {
					case i > at:
						panic("produce called after the end")
					case i == at && panics:
						panic(failure{at})
					case i == at:
						return 0, false
					}
					return 10 + i, true
				}, size)
				var want []int
				for i := 0; i < at; i++ {
					want = append(want, 10+i)
				}
				var wantPanic any
				if panics {
					wantPanic = failure{at}
				}
				got, p := drainAhead(a)
				if !slices.Equal(got, want) || p != wantPanic {
					t.Fatalf("size %d, end at %d, panics %v: took %v then %v, want %v then %v", size, at, panics, got, p, want, wantPanic)
				}
				if got, p := drainAhead(a); len(got) != 0 || p != wantPanic {
					t.Fatalf("size %d, end at %d, panics %v: after the end took %v then %v", size, at, panics, got, p)
				}
				if calls != at+1 {
					t.Fatalf("size %d, end at %d, panics %v: %d produce calls, want %d", size, at, panics, calls, at+1)
				}
				a.Stop()
				settleAhead(t, before)
			}
		}
	}
}

// TestAheadStopLeavesNoGoroutine: Stop right after NewAhead, mid-batch or
// past a batch waits for the producer. Once it returns produce is never
// called again, and at most two batches were produced past the last
// whole batch taken.
func TestAheadStopLeavesNoGoroutine(t *testing.T) {
	for _, size := range []int{1, 3} {
		for _, take := range []int{0, 1, size + 1} {
			before := runtime.NumGoroutine()
			calls := 0
			a := NewAhead(func() (int, bool) {
				calls++
				return calls, true
			}, size)
			for i := 0; i < take; i++ {
				if v, ok := a.Next(); !ok || v != i+1 {
					t.Fatalf("size %d: item %d is %d, %v", size, i, v, ok)
				}
			}
			a.Stop()
			stopped := calls
			settleAhead(t, before)
			if calls != stopped {
				t.Fatalf("size %d, stop after %d: %d produce calls at Stop, %d later", size, take, stopped, calls)
			}
			if limit := (take/size + 2) * size; calls > limit {
				t.Fatalf("size %d, stop after %d: %d produce calls, more than %d", size, take, calls, limit)
			}
		}
	}
}

// TestAheadZeroesTakenSlots: Next clears the slot of every item it hands
// over, so the buffer keeps nothing the consumer has taken alive (a Sim
// would otherwise pin up to two batches of admitted jobs).
func TestAheadZeroesTakenSlots(t *testing.T) {
	for _, size := range []int{1, 3} {
		n := 0
		a := NewAhead(func() (*Job, bool) {
			n++
			switch {
			case n > 3*size+1:
				panic("produce called after the end")
			case n == 3*size+1:
				return nil, false
			}
			return &Job{ID: n}, true
		}, size)
		for taken := 1; ; taken++ {
			j, ok := a.Next()
			if !ok {
				break
			}
			if j.ID != taken {
				t.Fatalf("size %d: item %d has ID %d", size, taken, j.ID)
			}
			for k, held := range a.batch[:a.next] {
				if held != nil {
					t.Fatalf("size %d: after item %d, taken slot %d still holds job %d", size, taken, k, held.ID)
				}
			}
		}
		a.Stop()
	}
}

// TestAheadFirstItemBeforeFullBatch: the first item arrives after a few
// produce calls, not after a whole batch. The producer blocks on its 9th
// call until the test has taken the first item; it is released before
// Stop either way, so a producer that fills a whole batch first fails
// the test instead of hanging it.
func TestAheadFirstItemBeforeFullBatch(t *testing.T) {
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	calls := 0
	a := NewAhead(func() (int, bool) {
		calls++
		if calls == 9 {
			<-release
		}
		return calls, true
	}, 1024)
	first := make(chan int, 1)
	go func() {
		v, _ := a.Next()
		first <- v
	}()
	var v int
	select {
	case v = <-first:
	case <-time.After(5 * time.Second):
	}
	close(release)
	if v == 0 {
		v = <-first
		a.Stop()
		t.Fatalf("first item %d taken only after the 9th produce call", v)
	}
	a.Stop()
	settleAhead(t, before)
	if v != 1 {
		t.Fatalf("first item is %d", v)
	}
}

// TestAheadBoundsUntakenItems: however far a slow consumer lags, no more
// than 2·size items are ever produced and not yet taken, checked after
// every Next and not only at Stop.
func TestAheadBoundsUntakenItems(t *testing.T) {
	for _, size := range []int{1, 3, 1024} {
		before := runtime.NumGoroutine()
		var calls atomic.Int64
		n := int64(5*size + 2)
		a := NewAhead(func() (int64, bool) {
			c := calls.Add(1)
			return c, c <= n
		}, size)
		for taken := int64(1); ; taken++ {
			v, ok := a.Next()
			if !ok {
				if taken != n+1 {
					t.Fatalf("size %d: the end after %d items, want %d", size, taken-1, n)
				}
				break
			}
			if v != taken {
				t.Fatalf("size %d: item %d is %d", size, taken, v)
			}
			if ahead := calls.Load() - taken; ahead > int64(2*size) {
				t.Fatalf("size %d: %d items produced and not taken after item %d, more than %d", size, ahead, taken, 2*size)
			}
			if taken%int64(max(size/4, 1)) == 0 {
				time.Sleep(200 * time.Microsecond) // let the producer run as far ahead as it may
			}
		}
		a.Stop()
		settleAhead(t, before)
	}
}
